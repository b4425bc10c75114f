package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"capri/internal/compile"
	"capri/internal/figures"
	"capri/internal/machine"
	"capri/internal/stats"
	"capri/internal/workload"
)

// BenchSchema identifies the BENCH_sim.json format. v2 added the dispatch
// mode and the per-sweep decode-cache counters (blocks decoded, cache hits,
// fused superinstructions); v3 separates simulated-only throughput from
// wall-clock (wall-derived inst/s also counts compile and setup time) and
// records the sweep's job count; v4 adds the multi-core figure (fig8-mt4)
// with its mt_inst_per_sec throughput and run-queue traffic; v5 adds the
// multi-sample methodology (-samples N): a per-figure samples array with
// median/MAD summary rates, the host fingerprint, and the degenerate-rate
// guard; v6 times every figure sequentially (no jobs field: -jobs no
// longer reaches the timed sweeps) and drops the map-backed
// reference-store figure with its speedup ratio. capristat reads older
// reports too — figures and fields they lack are skipped.
const BenchSchema = "capri/bench-sim/v6"

// minMeasurableSeconds is the guard below which a wall or simulated
// duration carries no rate signal: a sub-millisecond sweep at a tiny
// -scale divides a handful of instructions by timer jitter. Rates over
// such durations are reported as 0 with Degenerate set instead of a
// huge or +Inf value.
const minMeasurableSeconds = 1e-3

// safeRate returns inst/secs, guarding the degenerate cases: no
// instructions or no elapsed time yield (0, false) — nothing measured —
// while a positive duration under minMeasurableSeconds with work done
// yields (0, true): there WAS a measurement, but it is too short to be a
// rate.
func safeRate(inst uint64, secs float64) (rate float64, degenerate bool) {
	if inst == 0 || secs <= 0 {
		return 0, false
	}
	if secs < minMeasurableSeconds {
		return 0, true
	}
	return float64(inst) / secs, false
}

// perfFigure is one timed sweep in the perf report.
type perfFigure struct {
	// Figure names the artifact ("fig8", "fig9" or "fig8-mt4").
	Figure string `json:"figure"`
	// WallSeconds is the sweep's wall-clock time.
	WallSeconds float64 `json:"wall_seconds"`
	// Instructions newly simulated during this sweep (cache hits excluded).
	Instructions uint64 `json:"instructions"`
	// InstPerSec is Instructions / WallSeconds — the simulator throughput
	// trajectory future PRs regress against. Zero when the sweep simulated
	// nothing new (pure cache replay).
	InstPerSec float64 `json:"inst_per_sec"`
	// Mallocs and BytesAlloc are the process-wide allocation deltas of the
	// sweep; MallocsPerKInst normalizes per thousand simulated instructions.
	Mallocs         uint64  `json:"mallocs"`
	MallocsPerKInst float64 `json:"mallocs_per_kinst"`
	BytesAlloc      uint64  `json:"bytes_alloc"`
	// Decode-cache traffic of the sweep (threaded dispatch only): basic
	// blocks translated to thunk runs, block entries served from the cache,
	// and fused superinstructions among the decoded thunks.
	DecodeBlocks uint64 `json:"decode_blocks,omitempty"`
	DecodeHits   uint64 `json:"decode_hits,omitempty"`
	DecodeFused  uint64 `json:"decode_fused,omitempty"`
	// SimRuns counts machines turned during the sweep.
	SimRuns uint64 `json:"sim_runs"`
	// SimSeconds is wall time spent inside machine.Run, summed per run.
	// SimInstPerSec = Instructions / SimSeconds is the throughput the gate
	// compares: unlike InstPerSec it is not deflated by compile/setup
	// time. Zero when the sweep simulated nothing.
	SimSeconds    float64 `json:"sim_seconds"`
	SimInstPerSec float64 `json:"sim_inst_per_sec"`
	// MTInstPerSec is the multi-threaded simulated throughput of the fig8-mt4
	// sweep (the 4-thread Splash-3 suite on 8 simulated cores). It equals
	// SimInstPerSec for that figure and is zero elsewhere.
	MTInstPerSec float64 `json:"mt_inst_per_sec,omitempty"`
	// SchedQueueOps counts the sweep's run-queue pushes+pops (runq.go).
	SchedQueueOps uint64 `json:"sched_queue_ops,omitempty"`
	// Degenerate marks a figure whose duration fell below the measurable
	// floor (minMeasurableSeconds) while it did simulate work: its rates
	// are reported as 0 rather than a jitter-derived number.
	Degenerate bool `json:"degenerate,omitempty"`
	// Samples holds every per-sample measurement when the report was
	// produced with -samples N (schema v5); the figure's top-level fields
	// are the median sample's, so they stay internally consistent. The
	// median/MAD summarize the samples' sim_inst_per_sec.
	Samples             []perfSample `json:"samples,omitempty"`
	MedianSimInstPerSec float64      `json:"median_sim_inst_per_sec,omitempty"`
	MADSimInstPerSec    float64      `json:"mad_sim_inst_per_sec,omitempty"`
}

// perfSample is one of a figure's -samples N measurements: the timing
// signal capristat's rank test consumes, without the per-sweep counters
// (identical across samples by determinism).
type perfSample struct {
	WallSeconds   float64 `json:"wall_seconds"`
	Instructions  uint64  `json:"instructions"`
	SimSeconds    float64 `json:"sim_seconds"`
	SimInstPerSec float64 `json:"sim_inst_per_sec"`
	Degenerate    bool    `json:"degenerate,omitempty"`
}

// sampleOf extracts a figure measurement's timing sample.
func sampleOf(f perfFigure) perfSample {
	return perfSample{
		WallSeconds:   f.WallSeconds,
		Instructions:  f.Instructions,
		SimSeconds:    f.SimSeconds,
		SimInstPerSec: f.SimInstPerSec,
		Degenerate:    f.Degenerate,
	}
}

// hostInfo fingerprints the machine a report was produced on: rate
// comparisons between different hosts are not regressions, and capristat
// warns when the fingerprints differ.
type hostInfo struct {
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Hostname   string `json:"hostname,omitempty"`
}

// currentHost captures the running machine's fingerprint.
func currentHost() *hostInfo {
	name, _ := os.Hostname()
	return &hostInfo{
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Hostname:   name,
	}
}

// perfReport is the BENCH_sim.json payload.
type perfReport struct {
	Schema    string    `json:"schema"`
	Generated time.Time `json:"generated"`
	Scale     int       `json:"scale"`
	GoVersion string    `json:"go_version"`
	// Dispatch records which execution core produced the numbers
	// ("threaded" or "switch") — inst/s from different cores do not gate
	// against each other meaningfully.
	Dispatch   string `json:"dispatch,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Samples is the -samples count the report was produced with (v5);
	// 0 or 1 means single-sample. Host fingerprints the producing
	// machine.
	Samples          int          `json:"samples,omitempty"`
	Host             *hostInfo    `json:"host,omitempty"`
	Figures          []perfFigure `json:"figures"`
	TotalWallSeconds float64      `json:"total_wall_seconds"`
	// Compile-cache accounting per harness: a sweep that compiles the same
	// (benchmark, level, threshold) twice shows up here as hits shy of the
	// expected count, entries above it.
	Fig8CompileCache   perfCompileCache `json:"fig8_compile_cache"`
	FigureCompileCache perfCompileCache `json:"figure_compile_cache"`
}

// perfCompileCache is one harness's compile-cache accounting. DiskHits is
// always zero — the compile cache has no persistent tier — and stays so
// every v6 report has the same field set.
type perfCompileCache struct {
	Hits     int64 `json:"hits"`
	DiskHits int64 `json:"disk_hits"`
	Misses   int64 `json:"misses"`
	Entries  int   `json:"entries"`
}

// perfCacheOf renders a compile-cache snapshot for the report.
func perfCacheOf(s compile.CacheStats) perfCompileCache {
	return perfCompileCache{Hits: s.Hits, Misses: s.Misses, Entries: s.Entries}
}

// measure times fn, attributing instruction and allocation deltas.
func measure(name string, h *figures.Harness, fn func() error) (perfFigure, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	inst0 := h.Instret()
	blk0, hit0, fus0 := h.DecodeStats()
	runs0, sec0 := h.SimRuns(), h.SimSeconds()
	start := time.Now()
	err := fn()
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	if err != nil {
		return perfFigure{}, fmt.Errorf("%s: %w", name, err)
	}
	blk1, hit1, fus1 := h.DecodeStats()
	pf := perfFigure{
		Figure:       name,
		WallSeconds:  wall,
		Instructions: h.Instret() - inst0,
		Mallocs:      after.Mallocs - before.Mallocs,
		BytesAlloc:   after.TotalAlloc - before.TotalAlloc,
		DecodeBlocks: blk1 - blk0,
		DecodeHits:   hit1 - hit0,
		DecodeFused:  fus1 - fus0,
		SimRuns:      h.SimRuns() - runs0,
		SimSeconds:   h.SimSeconds() - sec0,
	}
	if pf.Instructions > 0 {
		pf.MallocsPerKInst = 1000 * float64(pf.Mallocs) / float64(pf.Instructions)
	}
	var degWall, degSim bool
	pf.InstPerSec, degWall = safeRate(pf.Instructions, wall)
	pf.SimInstPerSec, degSim = safeRate(pf.Instructions, pf.SimSeconds)
	pf.Degenerate = degWall || degSim
	return pf, nil
}

// runMTFigure times the 4-thread Splash-3 suite — the paper's Figure-8
// multi-threaded class — on fresh machines at the paper configuration
// (8 cores, threshold 256, LICM).
func runMTFigure(name string, scale int) (perfFigure, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	pf := perfFigure{Figure: name}
	for _, b := range workload.BySuite(workload.SuiteSplash) {
		res, err := compile.Compile(b.Build(scale), compile.OptionsForLevel(compile.LevelLICM, 256))
		if err != nil {
			return perfFigure{}, fmt.Errorf("%s: %s: %w", name, b.Name, err)
		}
		m, err := machine.New(res.Program, machine.DefaultConfig())
		if err != nil {
			return perfFigure{}, fmt.Errorf("%s: %s: %w", name, b.Name, err)
		}
		t0 := time.Now()
		if err := m.Run(); err != nil {
			return perfFigure{}, fmt.Errorf("%s: %s: %w", name, b.Name, err)
		}
		pf.SimSeconds += time.Since(t0).Seconds()
		s := m.Stats()
		pf.Instructions += s.Instret
		pf.SchedQueueOps += s.SchedQueueOps
		pf.SimRuns++
	}
	pf.WallSeconds = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	pf.Mallocs = after.Mallocs - before.Mallocs
	pf.BytesAlloc = after.TotalAlloc - before.TotalAlloc
	if pf.Instructions > 0 {
		pf.MallocsPerKInst = 1000 * float64(pf.Mallocs) / float64(pf.Instructions)
	}
	var degWall, degSim bool
	pf.InstPerSec, degWall = safeRate(pf.Instructions, pf.WallSeconds)
	pf.SimInstPerSec, degSim = safeRate(pf.Instructions, pf.SimSeconds)
	pf.MTInstPerSec = pf.SimInstPerSec
	pf.Degenerate = degWall || degSim
	return pf, nil
}

// perfPass is one full timed pass over the figure pipeline — one sample
// of every figure, plus the pass's compile-cache accounting.
type perfPass struct {
	figures []perfFigure
	fig8CC  compile.CacheStats
	figCC   compile.CacheStats
}

// runPerfPass times the full figure pipeline once on fresh harnesses. Every
// sweep runs its simulations one at a time: SimSeconds sums per-run wall
// times, and runs sharing CPUs inflate each other's, so a parallel
// sweep's rate would depend on the host's core count.
func runPerfPass(scale int) (perfPass, error) {
	var pass perfPass

	// Figure 8 on a fresh harness: the headline sweep (21 benchmarks x 6
	// thresholds, plus baselines).
	h8 := figures.NewHarness(scale)
	h8.Parallelism = 1
	pf, err := measure("fig8", h8, func() error { _, err := h8.Fig8(nil); return err })
	if err != nil {
		return pass, err
	}
	pass.figures = append(pass.figures, pf)

	// Figure 9 on its own harness: the cumulative-optimization level sweep.
	// Figures 10/11 and the headline only replay this sweep's run cache, so
	// they simulate nothing and carry no timing signal.
	h := figures.NewHarness(scale)
	h.Parallelism = 1
	pf, err = measure("fig9", h, func() error { _, err := h.Fig9(); return err })
	if err != nil {
		return pass, err
	}
	pass.figures = append(pass.figures, pf)

	// The multi-core figure: the 4-thread Splash-3 suite on 8 cores.
	pf, err = runMTFigure("fig8-mt4", scale)
	if err != nil {
		return pass, err
	}
	pass.figures = append(pass.figures, pf)
	pass.fig8CC = h8.CompileCacheStats()
	pass.figCC = h.CompileCacheStats()
	return pass, nil
}

// medianIndex returns the index of the lower-median element of xs.
func medianIndex(xs []float64) int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	return idx[(len(idx)-1)/2]
}

// summarize folds one figure's per-pass measurements into the reported
// figure: the median pass's measurement (by simulated rate, so every
// reported counter comes from one internally consistent pass) carrying
// the full samples array and the median/MAD summary.
func summarize(samples []perfFigure) perfFigure {
	rates := make([]float64, len(samples))
	for i, s := range samples {
		rates[i] = s.SimInstPerSec
	}
	f := samples[medianIndex(rates)]
	if len(samples) > 1 {
		for _, s := range samples {
			f.Samples = append(f.Samples, sampleOf(s))
		}
		f.MedianSimInstPerSec = stats.Median(rates)
		f.MADSimInstPerSec = stats.MAD(rates)
	}
	return f
}

// runPerf times the full figure pipeline `samples` times and writes
// BENCH_sim.json. With samples > 1 each figure's report carries the
// per-sample array `capristat` judges (`make perf` gates the fresh report
// against the committed one with it).
func runPerf(scale, samples int, outPath string) error {
	if samples < 1 {
		samples = 1
	}
	rep := perfReport{
		Schema:     BenchSchema,
		Generated:  time.Now().UTC(),
		Scale:      scale,
		GoVersion:  runtime.Version(),
		Dispatch:   machine.DefaultConfig().Dispatch.String(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Samples:    samples,
		Host:       currentHost(),
	}
	passes := make([]perfPass, samples)
	for s := 0; s < samples; s++ {
		pass, err := runPerfPass(scale)
		if err != nil {
			return err
		}
		passes[s] = pass
		if samples > 1 {
			fmt.Printf("perf: sample %d/%d  fig8 %.3fs  (%.0f sim inst/s)\n",
				s+1, samples, pass.figures[0].WallSeconds, pass.figures[0].SimInstPerSec)
		}
	}

	for i := range passes[0].figures {
		col := make([]perfFigure, samples)
		for s := range passes {
			col[s] = passes[s].figures[i]
		}
		rep.Figures = append(rep.Figures, summarize(col))
	}
	for _, f := range rep.Figures {
		rep.TotalWallSeconds += f.WallSeconds
	}
	rep.Fig8CompileCache = perfCacheOf(passes[0].fig8CC)
	rep.FigureCompileCache = perfCacheOf(passes[0].figCC)

	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(outPath, buf, 0o644); err != nil {
		return err
	}

	fmt.Printf("perf: wrote %s (scale %d, %s dispatch, %d sample(s))\n",
		outPath, scale, rep.Dispatch, rep.Samples)
	for _, f := range rep.Figures {
		fmt.Printf("  %-10s %8.3fs  %9d inst  %10.0f sim inst/s  %6.1f mallocs/kinst\n",
			f.Figure, f.WallSeconds, f.Instructions, f.SimInstPerSec, f.MallocsPerKInst)
		if len(f.Samples) > 1 {
			fmt.Printf("  %-10s median %.0f ± %.0f MAD sim inst/s over %d samples\n",
				"", f.MedianSimInstPerSec, f.MADSimInstPerSec, len(f.Samples))
		}
		if f.Degenerate {
			fmt.Printf("  %-10s DEGENERATE: duration below %.0fms, rates reported as 0\n",
				"", 1000*minMeasurableSeconds)
		}
		if f.DecodeBlocks+f.DecodeHits > 0 {
			fmt.Printf("  %-10s decode: %d blocks, %d cache hits, %d fused ops\n",
				"", f.DecodeBlocks, f.DecodeHits, f.DecodeFused)
		}
		if f.SchedQueueOps > 0 {
			fmt.Printf("  %-10s scheduler: %d run-queue ops\n", "", f.SchedQueueOps)
		}
	}
	for _, cc := range []struct {
		name string
		s    perfCompileCache
	}{{"fig8", rep.Fig8CompileCache}, {"fig9", rep.FigureCompileCache}} {
		fmt.Printf("  compile cache %-8s %4d compiles, %4d hits (%d distinct configurations)\n",
			cc.name, cc.s.Misses, cc.s.Hits, cc.s.Entries)
	}
	return nil
}
