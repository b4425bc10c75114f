// Command capricrash runs a crash-injection campaign: it executes a
// benchmark to completion for the golden state, then crashes fresh runs at a
// sweep of instruction counts, recovers each with the §5.4 protocol, resumes,
// and checks that every recovered run reproduces the golden output exactly.
//
// Usage:
//
//	capricrash -bench genome -points 25 -threshold 64 [-scale 1]
//	capricrash -bench genome -record-out crash.json
//	capricrash -fuzz 100 [-threads 2]   # random-program campaign
//	capricrash -campaign -seed 1 -trials 3 -corpus 12 -benches
//	capricrash -campaign -cores 2,4,8            # add cross-core contention targets
//	capricrash -plan fault-plan-min.json         # replay one fault plan
//
// Every crashed run goes through recovery.Run: the online Fig. 7 invariant
// auditor observes it end-to-end (run → crash → recovery replay →
// resumption), recovery must be detectable and independent of core order,
// and the resumed run must reproduce the golden outputs and whole memory
// image (or, for the contention workloads, their invariants). With
// -record-out, the capri/run-record/v1 provenance record of the first
// failing run — or, if the sweep is clean, the last crash point — is written
// for offline inspection with capriinspect.
//
// With -campaign, the hardware fault model of DESIGN.md §4f is driven by
// seeded random fault plans (torn NVM line writes at the power failure,
// nested crashes during recovery, transient drain write errors) over the
// synthetic fault workloads, a slice of the progen corpus, and optionally all
// paper benchmarks. Every failure is shrunk to a minimal reproducible plan
// (written to -plan-out) that -plan replays exactly.
//
// With -cores, the campaign additionally targets the cross-core contention
// workloads (shared counters, the MPMC persistent queue, lock-protected
// records) at each listed core geometry, with crash points landing inside
// atomic two-phase commits and mid-drain; outside -campaign a single core
// count overrides the sweep machine's geometry.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"capri/internal/audit"
	"capri/internal/compile"
	"capri/internal/fault"
	"capri/internal/machine"
	"capri/internal/progen"
	"capri/internal/recovery"
	"capri/internal/workload"
)

func main() {
	var (
		benchName = flag.String("bench", "genome", "benchmark to crash (see capricc -list)")
		threshold = flag.Int("threshold", 64, "region store threshold")
		points    = flag.Int("points", 25, "number of crash points to sweep")
		scale     = flag.Int("scale", 1, "workload scale factor")
		fuzz      = flag.Int("fuzz", 0, "instead of a benchmark, validate N random generated programs")
		threads   = flag.Int("threads", 1, "threads for generated programs (with -fuzz)")
		barriers  = flag.Bool("barriers", false, "generate SPMD programs with barrier episodes (with -fuzz)")
		seed      = flag.Uint64("seed", 1, "starting seed for -fuzz")
		recordOut = flag.String("record-out", "", "write the capri/run-record/v1 record of the first violating (else last) crash run")

		campaign  = flag.Bool("campaign", false, "run a seeded hardware-fault campaign (torn writes, nested crashes, drain errors)")
		trials    = flag.Int("trials", 3, "fault plans per target (with -campaign)")
		maxFaults = flag.Int("max-faults", 3, "max faults per plan (with -campaign)")
		corpus    = flag.Int("corpus", 12, "progen corpus programs to target (with -campaign)")
		benches   = flag.Bool("benches", false, "include all paper benchmarks as campaign targets (with -campaign)")
		coreList  = flag.String("cores", "", "comma-separated core counts (e.g. 2,4,8): with -campaign adds the cross-core contention workloads at those geometries; otherwise a single count overrides the sweep machine")
		duration  = flag.Duration("duration", 0, "stop starting new campaign targets after this long (with -campaign; 0 = no budget)")
		planOut   = flag.String("plan-out", "", "where -campaign writes the minimal failing fault plan (default fault-plan-min.json)")
		planIn    = flag.String("plan", "", "replay one capri/fault-plan/v1 JSON fault plan and exit")
		jobs      = flag.Int("jobs", 1, "campaign targets to run in parallel (with -campaign; 0 = GOMAXPROCS)")
	)
	flag.Parse()
	if *scale < 1 {
		fatal(fmt.Errorf("-scale must be >= 1, got %d", *scale))
	}

	cores, err := parseCores(*coreList)
	if err != nil {
		fatal(err)
	}

	if *planIn != "" {
		runPlanReplay(*planIn, *recordOut)
		return
	}
	if *campaign {
		runCampaign(*seed, *trials, *maxFaults, *corpus, *threshold, *scale, *jobs,
			*benches, cores, *duration, *planOut, *recordOut)
		return
	}

	if *fuzz > 0 {
		if *coreList != "" {
			fmt.Fprintln(os.Stderr, "capricrash: -fuzz cannot be combined with -cores: generated programs size the machine from -threads")
			os.Exit(2)
		}
		runFuzz(*fuzz, *seed, *threads, *threshold, *points, *barriers)
		return
	}

	b, err := workload.ByName(*benchName)
	if err != nil {
		fatal(err)
	}
	src := b.Build(*scale)
	res, err := compile.Compile(src, compile.OptionsForLevel(compile.LevelLICM, *threshold))
	if err != nil {
		fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.Threshold = *threshold
	cfg.L2Size = 2 << 20
	cfg.DRAMSize = 16 << 20
	if len(cores) > 1 {
		fatal(fmt.Errorf("-cores outside -campaign takes a single core count, got %q", *coreList))
	}
	if len(cores) == 1 {
		cfg.Cores = cores[0]
	}
	if n := src.NumThreads(); cfg.Cores < n {
		cfg.Cores = n
	}

	fmt.Printf("golden run of %s ...\n", b.Name)
	g, err := recovery.RunGolden(res.Program, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("golden: %d instructions, %d cycles\n", g.Instret, g.Cycles)
	if b.Check != nil {
		g.Check = func(mem map[uint64]uint64) error { return b.Check(*scale, mem) }
	}

	step := max(g.Instret/uint64(*points), 1)
	ok, failed := 0, 0
	var events, violations uint64
	for crashAt := step; crashAt < g.Instret; crashAt += step {
		o := recovery.Run(res.Program, cfg, g, crashAt, recovery.Faults{})
		if o.Vacuous && o.Err == nil {
			break // the program finished before the crash point
		}
		events += o.EventsAudited
		violations += o.Auditor.ViolationCount()
		if o.Err != nil {
			failed++
			fmt.Printf("crash@%-10d FAIL: %v\n", crashAt, o.Err)
			if failed == 1 {
				writeRecord(*recordOut, b.Name, o, nil)
			}
			continue
		}
		ok++
		rep := o.Report
		fmt.Printf("crash@%-10d OK   (regions redone %d, undone entries %d, slices %d)\n",
			crashAt, rep.RegionsRedone, rep.EntriesUndone, rep.SlicesExecuted)
		if failed == 0 && crashAt+step >= g.Instret {
			writeRecord(*recordOut, b.Name, o, nil)
		}
	}
	fmt.Printf("\n%d crash points recovered correctly, %d failed\n", ok, failed)
	fmt.Printf("auditor: %d provenance events, %d violations\n", events, violations)
	if failed > 0 {
		os.Exit(1)
	}
}

// writeRecord dumps a crashed run's capri/run-record/v1 provenance record
// (no-op without -record-out). A fault plan, when given, is embedded
// (RunRecord.Faults), so capriinspect shows what was injected and diff
// treats the plan as part of the run's identity.
func writeRecord(path, name string, o recovery.Outcome, plan *fault.Plan) {
	if path == "" || o.Flight == nil {
		return
	}
	var cfg, stats any
	fingerprint := ""
	if o.Machine != nil {
		fp := o.Machine.Program().Fingerprint()
		fingerprint = fmt.Sprintf("%x", fp[:])
		cfg = o.Machine.Config()
		stats = o.Machine.Stats()
	}
	rr, err := audit.NewRunRecordFull(o.Flight, o.Auditor, name, fingerprint, cfg, stats)
	if err != nil {
		fatal(err)
	}
	if plan != nil {
		if rr.Faults, err = json.Marshal(plan); err != nil {
			fatal(err)
		}
	}
	if err := rr.WriteFile(path); err != nil {
		fatal(err)
	}
	if path != "-" {
		fmt.Printf("record: %d events (%d retained) -> %s\n", rr.EventsTotal, rr.EventsKept, path)
	}
}

// runFuzz validates n randomly generated structured programs: each is
// compiled, run for a golden state, and crash-swept through recovery.Run;
// any divergence is a bug in the compiler or the recovery protocol.
func runFuzz(n int, seed uint64, threads, threshold, points int, barriers bool) {
	gcfg := progen.DefaultConfig()
	gcfg.Threads = threads
	gcfg.Barriers = barriers
	cfg := machine.DefaultConfig()
	cfg.Cores = threads
	if cfg.Cores < 1 {
		cfg.Cores = 1
	}
	cfg.Threshold = threshold
	cfg.L2Size = 256 << 10
	cfg.DRAMSize = 1 << 20

	failures := 0
	var events uint64
	for i := 0; i < n; i++ {
		s := seed + uint64(i)*2654435761
		p := progen.Generate(s, gcfg)
		opts := compile.OptionsForLevel(compile.LevelLICM, threshold)
		res, err := recovery.ValidateProgram(p, opts, cfg, points)
		if err != nil {
			failures++
			fmt.Printf("seed %-22d FAIL: %v\n", s, err)
			continue
		}
		events += res.EventsAudited
		fmt.Printf("seed %-22d OK   (%d crash points, %d regions redone, %d undos, %d slices)\n",
			s, res.Points, res.RegionsRedone, res.EntriesUndone, res.SlicesExecuted)
	}
	fmt.Printf("\n%d/%d random programs recovered correctly at every crash point\n", n-failures, n)
	fmt.Printf("auditor: %d provenance events across all crashed runs\n", events)
	if failures > 0 {
		os.Exit(1)
	}
}

// parseCores parses the -cores flag: a comma-separated list of positive core
// counts ("" parses to nil).
func parseCores(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-cores: %q is not a positive core count", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
