// Command caprisim runs one benchmark on the simulated Capri machine and
// reports cycles, the slowdown versus the volatile baseline, and the
// persistence machinery's counters.
//
// Usage:
//
//	caprisim -bench water-spatial -threshold 256 [-scale 1]
//	caprisim -bench genome -trace-out trace.json   # Chrome/Perfetto trace
//	caprisim -bench genome -metrics                # occupancy histograms
//	caprisim -bench genome -audit                  # online Fig. 7 invariant auditor
//	caprisim -bench genome -record-out run.json    # provenance run record (capriinspect)
//	caprisim -file prog.casm    # simulate a text program instead
//	caprisim -config            # print the paper's Table 1 configuration
package main

import (
	"flag"
	"fmt"
	"os"

	"capri/internal/asm"
	"capri/internal/audit"
	"capri/internal/compile"
	"capri/internal/figures"
	"capri/internal/machine"
	"capri/internal/prog"
	"capri/internal/stats"
	"capri/internal/trace"
	"capri/internal/workload"
)

func main() {
	var (
		benchName = flag.String("bench", "genome", "benchmark to run (see capricc -list)")
		threshold = flag.Int("threshold", compile.DefaultThreshold, "region store threshold")
		levelName = flag.String("level", "+licm", "optimization level")
		scale     = flag.Int("scale", 1, "workload scale factor")
		config    = flag.Bool("config", false, "print the Table 1 machine configuration and exit")
		file      = flag.String("file", "", "simulate a .casm text program instead of a benchmark")
		traceOut  = flag.String("trace-out", "", "write a Chrome trace-event JSON file (open in Perfetto)")
		metrics   = flag.Bool("metrics", false, "collect and print occupancy/latency histograms")
		auditRun  = flag.Bool("audit", false, "run the online Fig. 7 invariant auditor; exit non-zero on any violation")
		recordOut = flag.String("record-out", "", "write a capri/run-record/v1 provenance record (\"-\" for stdout; inspect with capriinspect)")
	)
	flag.Parse()
	if *scale < 1 {
		fatal(fmt.Errorf("-scale must be >= 1, got %d", *scale))
	}

	if *config {
		fmt.Print(machine.DefaultConfig().Table1())
		return
	}

	level, err := compile.ParseLevel(*levelName)
	if err != nil {
		fatal(fmt.Errorf("-level: %w", err))
	}

	var b workload.Benchmark
	if *file != "" {
		data, err := os.ReadFile(*file)
		if err != nil {
			fatal(err)
		}
		p, err := asm.Parse(*file, string(data))
		if err != nil {
			fatal(err)
		}
		b = workload.Benchmark{
			Name: *file, Suite: "casm", Threads: p.NumThreads(),
			Build: func(int) *prog.Program { return p },
		}
	} else {
		b, err = workload.ByName(*benchName)
		if err != nil {
			fatal(err)
		}
	}
	h := figures.NewHarness(*scale)
	baseStats, err := h.BaselineStats(b)
	if err != nil {
		fatal(err)
	}
	base := baseStats.Cycles

	var s machine.Stats
	var norm float64
	var hist *machine.Metrics
	if *traceOut != "" || *metrics || *auditRun || *recordOut != "" {
		// Instrumented path: run the machine directly with a provenance tap
		// and/or histogram collection attached (the cached harness path
		// cannot carry per-run instrumentation). Every view reads the one
		// tap: a bounded flight recorder feeds the run record, the auditor
		// checks every event online, and the trace recorder keeps the
		// persistence events for the Chrome trace.
		var (
			rec    *trace.Recorder
			flight *audit.FlightRecorder
			aud    *audit.Auditor
		)
		tap := func(m *machine.Machine) audit.Sink {
			var sinks []audit.Sink
			if *recordOut != "" || *auditRun {
				flight = audit.NewFlightRecorder(audit.DefaultRecorderCap)
				sinks = append(sinks, flight)
			}
			if *auditRun {
				aud = audit.NewAuditor(m.AuditOptions())
				aud.AttachRecorder(flight)
				sinks = append(sinks, aud)
			}
			if *traceOut != "" {
				rec = trace.NewRecorder()
				sinks = append(sinks, rec)
			}
			if len(sinks) == 0 {
				return nil // -metrics alone: no tap
			}
			return audit.Tee(sinks...)
		}
		// A run record always collects the histograms: they are
		// deterministic observers (no effect on simulated state), and
		// `capriinspect summary` derives its percentile report from them.
		collect := *metrics || *recordOut != ""
		m, err := h.RunTapped(b, level, *threshold, tap, collect)
		if err != nil {
			fatal(err)
		}
		s = m.Stats()
		norm = float64(s.Cycles) / float64(base)
		if *metrics {
			hist = m.Metrics()
		}
		if *recordOut != "" {
			fp := m.Program().Fingerprint()
			rr, err := audit.NewRunRecordFull(flight, aud, b.Name,
				fmt.Sprintf("%x", fp[:]), m.Config(), m.Stats())
			if err != nil {
				fatal(err)
			}
			if err := rr.SetMetrics(m.Metrics()); err != nil {
				fatal(err)
			}
			if err := rr.WriteFile(*recordOut); err != nil {
				fatal(err)
			}
			if *recordOut != "-" {
				fmt.Printf("record             %d events (%d retained) -> %s\n",
					rr.EventsTotal, rr.EventsKept, *recordOut)
			}
		}
		if aud != nil {
			if err := aud.Err(); err != nil {
				fmt.Fprintf(os.Stderr, "audit FAILED after %d events: %v\n", aud.EventsAudited(), err)
				os.Exit(1)
			}
			fmt.Printf("audit              ok: %d provenance events, 0 violations\n", aud.EventsAudited())
		}
		if rec != nil {
			f, err := os.Create(*traceOut)
			if err != nil {
				fatal(err)
			}
			if err := rec.WriteChromeTo(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("trace              %s: %d events (%s) -> %s\n",
				b.Name, rec.Len(), rec.Summary(), *traceOut)
		}
	} else {
		r, err := h.Run(b, level, *threshold)
		if err != nil {
			fatal(err)
		}
		s = r.Machine
		norm = r.Norm
	}

	fmt.Printf("benchmark          %s (%s, %d threads), level %s, threshold %d\n",
		b.Name, b.Suite, b.Threads, level, *threshold)
	fmt.Printf("baseline cycles    %d\n", base)
	fmt.Printf("capri cycles       %d  (normalized %.3f)\n", s.Cycles, norm)
	fmt.Printf("instructions       %d retired (%d stores, %d ckpt stores, %d boundaries)\n",
		s.Instret, s.Stores, s.Ckpts, s.Boundaries)
	fmt.Printf("regions            %d dynamic; avg %.1f insts, %.1f stores per region\n",
		s.Regions, s.AvgRegionInsts, s.AvgRegionStores)
	fmt.Printf("front-end proxy    %d allocs, %d merges, %d stalls, %d boundary entries (%d elided)\n",
		s.FrontAllocs, s.FrontMerges, s.FrontStalls, s.BoundaryEntries, s.ElidedBds)
	fmt.Printf("stale-read guard   %d scan hits, %d window hits, %d seq-guard drops\n",
		s.ScanHits, s.WindowHits, s.NVMStaleSkips)
	fmt.Printf("NVM                %d write ops, %d word writes\n", s.NVMWrites, s.NVMWordWrites)
	fmt.Printf("caches             L1 %d/%d hit/miss, L2 %d/%d, DRAM$ %d/%d\n",
		s.L1Hits, s.L1Misses, s.L2Hits, s.L2Misses, s.DRAMHits, s.DRAMMisses)
	fmt.Printf("stall cycles       %d\n", s.StallCycles)

	// Critical-core cycle breakdown from the always-on ledger: where the
	// makespan went. The rows sum exactly to the cycle count.
	fmt.Printf("cycle breakdown (critical core):\n")
	for cc := machine.CycleCause(0); cc < machine.NumCycleCauses; cc++ {
		n := s.CycleBy[cc]
		if n == 0 {
			continue
		}
		fmt.Printf("  %-11s %12d  (%5.1f%%)\n", cc, n, 100*float64(n)/float64(s.Cycles))
	}

	if hist != nil {
		fmt.Printf("histograms (sampled at region boundaries / controller writebacks):\n")
		for _, hh := range []struct {
			name string
			h    *stats.Hist
		}{
			{"front-end occupancy", &hist.FrontOcc},
			{"back-end occupancy", &hist.BackOcc},
			{"path in flight", &hist.PathInFlight},
			{"monitoring window", &hist.WindowLive},
			{"dirty L1 lines", &hist.L1Dirty},
			{"WPQ depth", &hist.WPQDepth},
			{"drain-bank depth", &hist.DrainQueue},
			{"region insts", &hist.RegionInsts},
			{"region stores", &hist.RegionStores},
			{"commit latency", &hist.CommitLat},
		} {
			fmt.Printf("  %-20s %s\n", hh.name, hh.h)
		}
		fmt.Printf("commit latency distribution (cycles):\n%s", hist.CommitLat.Bars(40))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
