// Package figures regenerates the paper's evaluation artifacts: Figure 8
// (normalized cycles vs store threshold), Figure 9 (normalized cycles under
// cumulative compiler optimizations), Figures 10 and 11 (average region
// length in instructions and stores), the §6.2 headline numbers, and
// Table 1. Every figure is a stats.Table whose rows are the 21 benchmarks in
// the paper's plotting order plus per-suite and overall geometric means.
package figures

import (
	"fmt"
	"sync"
	"sync/atomic"

	"capri/internal/audit"
	"capri/internal/compile"
	"capri/internal/machine"
	"capri/internal/stats"
	"capri/internal/sweep"
	"capri/internal/workload"
)

// Thresholds swept by Figure 8 (the paper plots 128–1024 and discusses 32/64
// in the text; we report all).
var Fig8Thresholds = []int{32, 64, 128, 256, 512, 1024}

// Harness runs benchmarks, caching baseline cycles and per-configuration
// results so the figures reuse runs (Figures 9–11 share the same sweeps),
// and fanning independent simulations across CPUs.
type Harness struct {
	// Scale multiplies workload trip counts (1 = figure scale).
	Scale int
	// Parallelism bounds concurrent simulations (0 = GOMAXPROCS).
	Parallelism int

	mu       sync.Mutex
	baseline map[string]*baselineRun
	results  map[runKey]*resultRun
	instret  atomic.Uint64

	// Runs that turned a machine, which the sweep determinism check
	// compares.
	simRuns atomic.Uint64
}

// baselineRun is one benchmark's baseline simulation, executed exactly once
// no matter how many callers race for it: losers of the map race share the
// winner's once and block until the single simulation finishes.
type baselineRun struct {
	once  sync.Once
	stats machine.Stats
	err   error
}

type runKey struct {
	bench     string
	level     compile.Level
	threshold int
}

// resultRun single-flights one (benchmark, level, threshold) configuration:
// under a parallel Prefetch, racing callers share one simulation instead of
// duplicating it, which keeps the harness's sim counters
// schedule-independent.
type resultRun struct {
	once sync.Once
	res  Result
	err  error
}

// NewHarness returns a harness at the given workload scale.
func NewHarness(scale int) *Harness {
	return &Harness{
		Scale:    scale,
		baseline: map[string]*baselineRun{},
		results:  map[runKey]*resultRun{},
	}
}

// Instret returns the total instructions simulated through this harness
// (baseline and Capri runs; cache hits do not re-count).
func (h *Harness) Instret() uint64 { return h.instret.Load() }

// SimRuns returns the number of simulations this harness executed; cached
// results do not re-count.
func (h *Harness) SimRuns() uint64 { return h.simRuns.Load() }

// addSim folds one finished machine's counters into the harness totals.
func (h *Harness) addSim(ms machine.Stats) {
	h.instret.Add(ms.Instret)
	h.simRuns.Add(1)
}

// config builds the machine configuration for a run, raising the default
// core count to the program's thread count (a .casm program may run more
// threads than the default machine has cores).
func config(threads, threshold int, capri bool) machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Capri = capri
	if capri {
		cfg.Threshold = threshold
	}
	cfg.Cores = max(cfg.Cores, threads)
	// The synthetic working sets are scaled down relative to the paper's
	// full runs; shrink the L2/DRAM cache in proportion so the hierarchy
	// still differentiates the benchmarks.
	cfg.L2Size = 2 << 20
	cfg.DRAMSize = 16 << 20
	return cfg
}

// Baseline returns the volatile-machine cycle count for a benchmark. Each
// benchmark's baseline is simulated exactly once even under concurrent
// callers (a per-benchmark once guard, not just a result cache). Safe for
// concurrent use.
func (h *Harness) Baseline(b workload.Benchmark) (uint64, error) {
	s, err := h.BaselineStats(b)
	return s.Cycles, err
}

// BaselineStats is Baseline returning the full counter snapshot — in
// particular the baseline machine's cycle-accounting ledger (Stats.CycleBy),
// which the explain decomposition subtracts from the Capri run's.
func (h *Harness) BaselineStats(b workload.Benchmark) (machine.Stats, error) {
	h.mu.Lock()
	e, ok := h.baseline[b.Name]
	if !ok {
		e = &baselineRun{}
		h.baseline[b.Name] = e
	}
	h.mu.Unlock()
	e.once.Do(func() {
		m, err := machine.New(b.Build(h.Scale), config(b.Threads, 0, false))
		if err != nil {
			e.err = fmt.Errorf("%s baseline: %w", b.Name, err)
			return
		}
		if err := m.Run(); err != nil {
			e.err = fmt.Errorf("%s baseline: %w", b.Name, err)
			return
		}
		e.stats = m.Stats()
		h.addSim(e.stats)
	})
	return e.stats, e.err
}

// Result is one Capri run's outcome.
type Result struct {
	Norm         float64 // Capri cycles / baseline cycles
	Machine      machine.Stats
	Compile      compile.Stats
	RegionInsts  float64 // dynamic average instructions per region
	RegionStores float64 // dynamic average stores (incl. ckpts) per region
}

// Run executes one benchmark under Capri at the given optimization level and
// threshold, returning normalized cycles and region statistics. Results are
// cached per (benchmark, level, threshold) behind a per-key singleflight —
// racing callers share one simulation, never duplicate it — so the
// harness's counters are the same under any parallelism.
// Safe for concurrent use.
func (h *Harness) Run(b workload.Benchmark, level compile.Level, threshold int) (Result, error) {
	key := runKey{bench: b.Name, level: level, threshold: threshold}
	h.mu.Lock()
	e, ok := h.results[key]
	if !ok {
		e = &resultRun{}
		h.results[key] = e
	}
	h.mu.Unlock()
	e.once.Do(func() {
		e.res, e.err = h.runOnce(b, level, threshold)
	})
	return e.res, e.err
}

// runOnce does the work behind Run's singleflight: baseline, compile,
// simulate, and derive the figure-facing Result.
func (h *Harness) runOnce(b workload.Benchmark, level compile.Level, threshold int) (Result, error) {
	base, err := h.Baseline(b)
	if err != nil {
		return Result{}, err
	}
	res, err := compile.Compile(b.Build(h.Scale), compile.OptionsForLevel(level, threshold))
	if err != nil {
		return Result{}, fmt.Errorf("%s %s@%d: %w", b.Name, level, threshold, err)
	}
	m, err := machine.New(res.Program, config(b.Threads, threshold, true))
	if err != nil {
		return Result{}, fmt.Errorf("%s %s@%d: %w", b.Name, level, threshold, err)
	}
	if err := m.Run(); err != nil {
		return Result{}, fmt.Errorf("%s %s@%d: %w", b.Name, level, threshold, err)
	}
	ms := m.Stats()
	h.addSim(ms)
	return Result{
		Norm:         float64(ms.Cycles) / float64(base),
		Machine:      ms,
		Compile:      res.Stats,
		RegionInsts:  ms.AvgRegionInsts,
		RegionStores: ms.AvgRegionStores,
	}, nil
}

// RunTapped executes one Capri run outside the result cache, with a
// provenance tap (see the audit package) attached before the run and (when
// collect is set) histogram metrics enabled. It returns the finished machine
// so callers can inspect its metrics, stats and configuration — the backing
// for `caprisim -trace-out` / `-audit` / `-record-out` / `-metrics`. The tap
// factory receives the freshly built machine (so it can size an auditor from
// m.AuditOptions()) and returns the sink to attach; either the factory or its
// result may be nil. Tapped runs are never result-cached: the sink makes
// them side-effecting, so each one compiles and simulates afresh.
func (h *Harness) RunTapped(b workload.Benchmark, level compile.Level, threshold int, tap func(*machine.Machine) audit.Sink, collect bool) (*machine.Machine, error) {
	res, err := compile.Compile(b.Build(h.Scale), compile.OptionsForLevel(level, threshold))
	if err != nil {
		return nil, fmt.Errorf("%s %s@%d: %w", b.Name, level, threshold, err)
	}
	m, err := machine.New(res.Program, config(b.Threads, threshold, true))
	if err != nil {
		return nil, fmt.Errorf("%s %s@%d: %w", b.Name, level, threshold, err)
	}
	if tap != nil {
		if s := tap(m); s != nil {
			m.SetTap(s)
		}
	}
	if collect {
		m.EnableMetrics()
	}
	if err := m.Run(); err != nil {
		return nil, fmt.Errorf("%s %s@%d: %w", b.Name, level, threshold, err)
	}
	h.addSim(m.Stats())
	return m, nil
}

// Prefetch shards the (benchmark × level × threshold) grid across the sweep
// orchestrator (Parallelism workers; 0 = GOMAXPROCS), filling the result
// cache so the figure builders' sequential loops hit it. The reported error
// is the lowest-indexed failing unit (schedule-independent), and every unit
// runs even when one fails.
func (h *Harness) Prefetch(levels []compile.Level, thresholds []int) error {
	units := sweep.Grid(workload.All(), levels, thresholds)
	return sweep.RunUnits(h.Parallelism, units, func(u sweep.Unit) error {
		_, err := h.Run(u.Bench, u.Level, u.Threshold)
		return err
	})
}

// suiteOf maps a benchmark name to its suite label for geomean rows.
func addGeomeanRows(t *stats.Table, cols []string) {
	bySuite := map[workload.Suite]func(string) bool{}
	for _, s := range []workload.Suite{workload.SuiteSPEC, workload.SuiteSTAMP, workload.SuiteSplash} {
		s := s
		members := map[string]bool{}
		for _, b := range workload.BySuite(s) {
			members[b.Name] = true
		}
		bySuite[s] = func(label string) bool { return members[label] }
	}
	t.AddRule()
	for _, s := range []struct {
		label string
		suite workload.Suite
	}{
		{"cpu2017_gmean", workload.SuiteSPEC},
		{"stamp_gmean", workload.SuiteSTAMP},
		{"splash3_gmean", workload.SuiteSplash},
	} {
		var vals []float64
		for _, c := range cols {
			vals = append(vals, stats.Geomean(t.Column(c, bySuite[s.suite])))
		}
		t.AddRow(s.label, vals...)
	}
	var overall []float64
	names := map[string]bool{}
	for _, b := range workload.All() {
		names[b.Name] = true
	}
	for _, c := range cols {
		overall = append(overall, stats.Geomean(t.Column(c, func(l string) bool { return names[l] })))
	}
	t.AddRow("overall_gmean", overall...)
}

// Fig8 regenerates Figure 8: normalized execution cycles per benchmark for
// each store threshold, all compiler optimizations enabled.
func (h *Harness) Fig8(thresholds []int) (*stats.Table, error) {
	if len(thresholds) == 0 {
		thresholds = Fig8Thresholds
	}
	cols := make([]string, len(thresholds))
	for i, th := range thresholds {
		cols[i] = fmt.Sprint(th)
	}
	if err := h.Prefetch([]compile.Level{compile.LevelLICM}, thresholds); err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 8: normalized execution cycles vs store threshold (lower is better)", cols...)
	for _, b := range workload.All() {
		vals := make([]float64, len(thresholds))
		for i, th := range thresholds {
			r, err := h.Run(b, compile.LevelLICM, th)
			if err != nil {
				return nil, err
			}
			vals[i] = r.Norm
		}
		t.AddRow(b.Name, vals...)
	}
	addGeomeanRows(t, cols)
	return t, nil
}

// levelCols are Figure 9–11's column names.
func levelCols() []string {
	cols := make([]string, len(compile.Levels))
	for i, l := range compile.Levels {
		cols[i] = l.String()
	}
	return cols
}

// figByLevel runs every benchmark across the cumulative optimization levels
// at the default threshold and fills a table using pick to select the
// reported metric.
func (h *Harness) figByLevel(title string, pick func(Result) float64) (*stats.Table, error) {
	cols := levelCols()
	if err := h.Prefetch(compile.Levels, []int{compile.DefaultThreshold}); err != nil {
		return nil, err
	}
	t := stats.NewTable(title, cols...)
	for _, b := range workload.All() {
		vals := make([]float64, len(compile.Levels))
		for i, l := range compile.Levels {
			r, err := h.Run(b, l, compile.DefaultThreshold)
			if err != nil {
				return nil, err
			}
			vals[i] = pick(r)
		}
		t.AddRow(b.Name, vals...)
	}
	addGeomeanRows(t, cols)
	return t, nil
}

// Fig9 regenerates Figure 9: normalized cycles under cumulative compiler
// optimizations at threshold 256.
func (h *Harness) Fig9() (*stats.Table, error) {
	return h.figByLevel(
		"Figure 9: normalized execution cycles with cumulative compiler optimizations (threshold 256)",
		func(r Result) float64 { return r.Norm })
}

// Fig10 regenerates Figure 10: average number of instructions per dynamic
// region.
func (h *Harness) Fig10() (*stats.Table, error) {
	return h.figByLevel(
		"Figure 10: average number of instructions in regions",
		func(r Result) float64 { return r.RegionInsts })
}

// Fig11 regenerates Figure 11: average number of store instructions
// (checkpoints included) per dynamic region.
func (h *Harness) Fig11() (*stats.Table, error) {
	return h.figByLevel(
		"Figure 11: average number of stores in regions (incl. checkpoints)",
		func(r Result) float64 { return r.RegionStores })
}

// NVMWrites tabulates dynamic checkpoint stores per thousand instructions
// under the cumulative optimization levels — the paper's §6.2 claim that
// checkpoint pruning and LICM "reduce NVM writes and thus are particularly
// beneficial in terms of improved power consumption and NVM endurance",
// which Figure 9's cycle bars cannot show.
func (h *Harness) NVMWrites() (*stats.Table, error) {
	return h.figByLevel(
		"Checkpoint stores per 1000 instructions (NVM write pressure; §6.2 endurance claim)",
		func(r Result) float64 {
			if r.Machine.Instret == 0 {
				return 0
			}
			return 1000 * float64(r.Machine.Ckpts) / float64(r.Machine.Instret)
		})
}

// Headline computes the §6.2 headline overheads: per-suite geomean slowdown
// at threshold 256 with all optimizations (paper: 0%, 12.4%, 9.1%; overall
// 5.1%).
type Headline struct {
	SPEC, STAMP, Splash, Overall float64
}

// Headline runs the default configuration and reports suite overheads.
func (h *Harness) Headline() (Headline, error) {
	var out Headline
	per := map[workload.Suite][]float64{}
	var all []float64
	for _, b := range workload.All() {
		r, err := h.Run(b, compile.LevelLICM, compile.DefaultThreshold)
		if err != nil {
			return out, err
		}
		per[b.Suite] = append(per[b.Suite], r.Norm)
		all = append(all, r.Norm)
	}
	out.SPEC = stats.Geomean(per[workload.SuiteSPEC]) - 1
	out.STAMP = stats.Geomean(per[workload.SuiteSTAMP]) - 1
	out.Splash = stats.Geomean(per[workload.SuiteSplash]) - 1
	out.Overall = stats.Geomean(all) - 1
	return out, nil
}
