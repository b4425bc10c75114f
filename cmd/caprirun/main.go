// Command caprirun assembles a .casm text program, compiles it with the
// Capri compiler, and executes it on the simulated whole-system-persistent
// machine — optionally crashing it mid-run and recovering, to demonstrate
// failure atomicity on user-written programs.
//
// Usage:
//
//	caprirun prog.casm                       # run to completion
//	caprirun -crash 5000 prog.casm           # power fails after 5000 instrs
//	caprirun -threshold 64 -baseline prog.casm
//
// Cross-process persistence: with -image the "NVM and battery-backed
// buffers" live in a file, so a crash in one invocation is recovered by the
// next — whole-system persistence across process lifetimes:
//
//	caprirun -image state.img -crash 5000 prog.casm   # dies, writes state.img
//	caprirun -image state.img prog.casm               # recovers and finishes
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"capri/internal/asm"
	"capri/internal/audit"
	"capri/internal/compile"
	"capri/internal/image"
	"capri/internal/machine"
	"capri/internal/trace"
)

func main() {
	var (
		threshold = flag.Int("threshold", compile.DefaultThreshold, "region store threshold")
		crashAt   = flag.Uint64("crash", 0, "inject a power failure after N retired instructions (0 = none)")
		baseline  = flag.Bool("baseline", false, "run on the volatile baseline machine (no Capri)")
		stats     = flag.Bool("stats", false, "print machine statistics")
		imgPath   = flag.String("image", "", "persistent state file: recover from it if present; crashes write it")
		tracePath = flag.String("trace", "", "write a persistence event trace to this file (.json: Chrome trace-event format for Perfetto)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: caprirun [flags] prog.casm")
		os.Exit(2)
	}
	path := flag.Arg(0)
	data, err := os.ReadFile(path)
	check(err)
	src, err := asm.Parse(path, string(data))
	check(err)

	cfg := machine.DefaultConfig()
	cfg.Threshold = *threshold
	if src.NumThreads() > cfg.Cores {
		cfg.Cores = src.NumThreads()
	}

	if *baseline {
		if err := checkBaseline(*crashAt, *imgPath, *tracePath); err != nil {
			fmt.Fprintln(os.Stderr, "caprirun:", err)
			os.Exit(2)
		}
		cfg.Capri = false
		m, err := machine.New(src, cfg)
		check(err)
		check(m.Run())
		report(m, src.NumThreads(), *stats)
		return
	}

	// The trace is a view of the machine's provenance tap. Without -trace the
	// tap stays an untyped nil: a nil *trace.Recorder inside the interface
	// would be called on the first event.
	var tap audit.Sink
	if *tracePath != "" {
		rec := trace.NewRecorder()
		tap = rec
		defer func() {
			f, err := os.Create(*tracePath)
			check(err)
			if strings.HasSuffix(*tracePath, ".json") {
				check(rec.WriteChromeTo(f))
			} else {
				_, err = rec.WriteTo(f)
				check(err)
			}
			check(f.Close())
			fmt.Printf("trace: %s (%s)\n", *tracePath, rec.Summary())
		}()
	}

	// Recover from a prior invocation's persistent image if one exists.
	if *imgPath != "" {
		if img, err := image.LoadFile(*imgPath); err == nil {
			fmt.Printf("recovering from %s ...\n", *imgPath)
			r, rep, err := machine.RecoverInstrumented(img, nil, tap)
			check(err)
			fmt.Printf("recovered: %d regions redone, %d entries undone, %d slices, %d cores resumed\n",
				rep.RegionsRedone, rep.EntriesUndone, rep.SlicesExecuted, rep.CoresResumed)
			threads := img.Prog.NumThreads()
			if *crashAt > 0 {
				check(r.RunUntil(*crashAt))
				if !r.Done() {
					img2, err := r.Crash()
					check(err)
					check(image.Save(*imgPath, img2))
					fmt.Printf("power failed again after %d instructions; state saved to %s\n",
						r.Instret(), *imgPath)
					return
				}
			} else {
				check(r.Run())
			}
			os.Remove(*imgPath) // completed: the image is consumed
			report(r, threads, *stats)
			return
		} else if !os.IsNotExist(err) {
			check(err)
		}
	}

	res, err := compile.Compile(src, compile.OptionsForLevel(compile.LevelLICM, *threshold))
	check(err)
	fmt.Printf("compiled: %d regions, %d ckpt stores (%d pruned, %d hoisted), %d loops unrolled\n",
		res.Stats.Regions, res.Stats.CkptsInserted, res.Stats.CkptsPruned,
		res.Stats.CkptsHoisted, res.Stats.LoopsUnrolled)

	m, err := machine.New(res.Program, cfg)
	check(err)
	m.SetTap(tap)

	if *crashAt == 0 {
		check(m.Run())
		report(m, src.NumThreads(), *stats)
		return
	}

	check(m.RunUntil(*crashAt))
	if m.Done() {
		fmt.Println("program finished before the crash point")
		report(m, src.NumThreads(), *stats)
		return
	}
	img, err := m.Crash()
	check(err)
	fmt.Printf("power failed after %d instructions\n", m.Instret())
	if *imgPath != "" {
		check(image.Save(*imgPath, img))
		fmt.Printf("persistent state saved to %s; rerun with -image to recover\n", *imgPath)
		return
	}
	// Keep tracing across the crash: the recovered machine reuses the same
	// tap, so the trace shows the crash edge, the recovery edge, and the
	// re-executed regions in one timeline.
	r, rep, err := machine.RecoverInstrumented(img, nil, tap)
	check(err)
	fmt.Printf("recovered: %d regions redone, %d entries undone (%d applied), %d slices, %d cores resumed\n",
		rep.RegionsRedone, rep.EntriesUndone, rep.UndoneApplied, rep.SlicesExecuted, rep.CoresResumed)
	check(r.Run())
	report(r, src.NumThreads(), *stats)
}

// checkBaseline rejects the flags the volatile baseline machine cannot honour:
// it has no persistence protocol, so it has no crash image to inject, save or
// recover, and emits no persistence events to trace.
func checkBaseline(crashAt uint64, imgPath, tracePath string) error {
	var bad []string
	if crashAt > 0 {
		bad = append(bad, "-crash")
	}
	if imgPath != "" {
		bad = append(bad, "-image")
	}
	if tracePath != "" {
		bad = append(bad, "-trace")
	}
	if len(bad) > 0 {
		return fmt.Errorf("-baseline cannot be combined with %s: the volatile baseline has no persistence protocol",
			strings.Join(bad, ", "))
	}
	return nil
}

func report(m *machine.Machine, threads int, withStats bool) {
	for t := 0; t < threads; t++ {
		fmt.Printf("thread %d output: %v\n", t, m.Output(t))
	}
	fmt.Printf("cycles: %d, instructions: %d\n", m.Cycles(), m.Instret())
	if withStats {
		s := m.Stats()
		fmt.Printf("stores %d, ckpts %d, boundaries %d, regions %d (avg %.1f insts, %.1f stores)\n",
			s.Stores, s.Ckpts, s.Boundaries, s.Regions, s.AvgRegionInsts, s.AvgRegionStores)
		fmt.Printf("NVM writes %d, stale skips %d, scan hits %d, stalls %d\n",
			s.NVMWrites, s.NVMStaleSkips, s.ScanHits, s.StallCycles)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
