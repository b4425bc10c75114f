package workload

import (
	"testing"

	"capri/internal/analysis"
	"capri/internal/compile"
	"capri/internal/isa"
	"capri/internal/machine"
)

// runBaseline executes a benchmark on the volatile machine and returns its
// stats (the workload's intrinsic character, before Capri).
func runBaseline(t *testing.T, b Benchmark) machine.Stats {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.Capri = false
	cfg.L2Size = 2 << 20
	cfg.DRAMSize = 16 << 20
	m, err := machine.New(b.Build(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return m.Stats()
}

// storeDensity returns stores per retired instruction.
func storeDensity(s machine.Stats) float64 {
	return float64(s.Stores) / float64(s.Instret)
}

func TestSuiteStoreDensityOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload execution")
	}
	// The calibration premise: STAMP stand-ins are more store-dense than
	// SPEC stand-ins on (geometric) average — that is what makes STAMP the
	// highest-overhead suite.
	avg := func(suite Suite) float64 {
		var sum float64
		bs := BySuite(suite)
		for _, b := range bs {
			sum += storeDensity(runBaseline(t, b))
		}
		return sum / float64(len(bs))
	}
	spec := avg(SuiteSPEC)
	stamp := avg(SuiteSTAMP)
	if stamp <= spec {
		t.Errorf("STAMP density %.3f not above SPEC %.3f", stamp, spec)
	}
}

func TestShortLoopFlagsMatchStructure(t *testing.T) {
	// Benchmarks flagged ShortLoops must actually contain short loops: the
	// smallest loop body (in instructions) among their loops should be small.
	for _, b := range All() {
		p := b.Build(1)
		minBody := 1 << 30
		for _, f := range p.Funcs {
			cfg := analysis.BuildCFG(new(analysis.Arena), f)
			for _, l := range cfg.Loops() {
				n := 0
				for id := l.Blocks.Next(0); id >= 0; id = l.Blocks.Next(id + 1) {
					n += len(f.Blocks[id].Insts)
				}
				if n < minBody {
					minBody = n
				}
			}
		}
		if b.ShortLoops && minBody > 40 {
			t.Errorf("%s flagged ShortLoops but smallest loop is %d insts", b.Name, minBody)
		}
	}
}

func TestMultithreadedSuitesUseLocks(t *testing.T) {
	// Splash-3 stand-ins must contain sync instructions (the region-boundary
	// lever for multi-threaded correctness, §4.1).
	for _, b := range BySuite(SuiteSplash) {
		p := b.Build(1)
		syncs := 0
		for _, f := range p.Funcs {
			for _, blk := range f.Blocks {
				for i := range blk.Insts {
					if blk.Insts[i].IsMandatoryBoundary() {
						syncs++
					}
				}
			}
		}
		if syncs == 0 {
			t.Errorf("%s has no sync instructions", b.Name)
		}
	}
	// SPEC stand-ins are single-threaded and lock-free.
	for _, b := range BySuite(SuiteSPEC) {
		p := b.Build(1)
		for _, f := range p.Funcs {
			for _, blk := range f.Blocks {
				for i := range blk.Insts {
					op := blk.Insts[i].Op
					if op == isa.OpLock || op == isa.OpBarrier {
						t.Errorf("%s (single-threaded) uses %s", b.Name, op)
					}
				}
			}
		}
	}
}

func TestScaleGrowsWork(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload execution")
	}
	b, _ := ByName("ssca2")
	cfg := machine.DefaultConfig()
	cfg.Capri = false
	cfg.L2Size = 2 << 20
	cfg.DRAMSize = 16 << 20
	run := func(scale int) uint64 {
		m, err := machine.New(b.Build(scale), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m.Instret()
	}
	n1, n2 := run(1), run(2)
	if n2 < n1*3/2 {
		t.Errorf("scale 2 ran %d instructions vs %d at scale 1 — scaling broken", n2, n1)
	}
}

func TestCallHeavyBenchmarksHaveCalls(t *testing.T) {
	for _, name := range []string{"531.deepsjeng_r", "vacation"} {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := b.Build(1)
		calls := 0
		for _, f := range p.Funcs {
			for _, blk := range f.Blocks {
				for i := range blk.Insts {
					if blk.Insts[i].Op == isa.OpCall {
						calls++
					}
				}
			}
		}
		if calls == 0 {
			t.Errorf("%s is supposed to be call-heavy but has no calls", name)
		}
	}
}

func TestUnrollFiresOnShortLoopBenchmarks(t *testing.T) {
	// ShortLoops benchmarks must give speculative unrolling material.
	for _, b := range All() {
		if !b.ShortLoops {
			continue
		}
		res, err := compile.Compile(b.Build(1), compile.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.LoopsUnrolled == 0 {
			t.Errorf("%s: no loops unrolled despite ShortLoops flag", b.Name)
		}
	}
}

func TestLICMMaterialExists(t *testing.T) {
	// At least one benchmark must exercise the LICM pass (namd carries
	// loop-invariant computations by construction).
	total := 0
	for _, b := range All() {
		res, err := compile.Compile(b.Build(1), compile.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		total += res.Stats.CkptsHoisted
	}
	if total == 0 {
		t.Error("no benchmark exercises checkpoint LICM")
	}
}
