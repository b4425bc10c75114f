package figures

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"capri/internal/compile"
	"capri/internal/stats"
	"capri/internal/workload"
)

// quick grabs a small-scale harness; figure tests assert trends, not
// absolute numbers, so scale 1 with the default machine is used throughout
// but per-test subsets keep runtime reasonable.
func quick() *Harness { return NewHarness(1) }

func TestBaselineCaching(t *testing.T) {
	h := quick()
	b, err := workload.ByName("ssca2")
	if err != nil {
		t.Fatal(err)
	}
	c1, err := h.Baseline(b)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := h.Baseline(b)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 || c1 == 0 {
		t.Errorf("baseline cache broken: %d vs %d", c1, c2)
	}
}

// TestBaselineRunsExactlyOnceUnderRace: many goroutines racing for a cold
// baseline must trigger exactly one simulation. The seed's check-then-run
// cache let every racer that missed simulate the baseline redundantly; the
// per-benchmark once guard closes that. Instret counts every simulated
// instruction, so a double run is visible as a doubled count.
func TestBaselineRunsExactlyOnceUnderRace(t *testing.T) {
	b, err := workload.ByName("ssca2")
	if err != nil {
		t.Fatal(err)
	}

	// Reference: one sequential baseline's instruction count.
	hseq := quick()
	if _, err := hseq.Baseline(b); err != nil {
		t.Fatal(err)
	}
	want := hseq.Instret()
	if want == 0 {
		t.Fatal("baseline simulated nothing")
	}

	h := quick()
	const racers = 8
	cycles := make([]uint64, racers)
	errs := make([]error, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			cycles[i], errs[i] = h.Baseline(b)
		}()
	}
	wg.Wait()
	for i := 0; i < racers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if cycles[i] != cycles[0] {
			t.Errorf("racer %d saw cycles %d, racer 0 saw %d", i, cycles[i], cycles[0])
		}
	}
	if got := h.Instret(); got != want {
		t.Errorf("racing baseline simulated %d instructions, want exactly one run's %d", got, want)
	}
}

func TestRunProducesSaneNorm(t *testing.T) {
	h := quick()
	b, _ := workload.ByName("genome")
	r, err := h.Run(b, compile.LevelLICM, 256)
	if err != nil {
		t.Fatal(err)
	}
	if r.Norm < 0.95 || r.Norm > 2.5 {
		t.Errorf("genome norm = %.3f, outside sanity band", r.Norm)
	}
	if r.RegionInsts <= 0 || r.RegionStores <= 0 {
		t.Errorf("region stats missing: %+v", r)
	}
}

func TestThresholdTrendPerBenchmark(t *testing.T) {
	// Figure 8's core claim: larger thresholds never hurt (monotone
	// non-increasing overhead, small tolerance for simulation noise).
	h := quick()
	for _, name := range []string{"508.namd_r", "ssca2", "volrend"} {
		b, _ := workload.ByName(name)
		prev := 1e9
		for _, th := range []int{32, 256} {
			r, err := h.Run(b, compile.LevelLICM, th)
			if err != nil {
				t.Fatal(err)
			}
			if r.Norm > prev*1.02 {
				t.Errorf("%s: overhead grew from threshold increase: %.3f -> %.3f", name, prev, r.Norm)
			}
			prev = r.Norm
		}
	}
}

func TestUnrollingHelpsShortLoopBenchmarks(t *testing.T) {
	// Figure 9's headline: speculative unrolling gives large gains exactly
	// for the short-loop benchmarks the paper names.
	h := quick()
	for _, name := range []string{"508.namd_r", "ssca2", "volrend", "water-spatial"} {
		b, _ := workload.ByName(name)
		ck, err := h.Run(b, compile.LevelCkpt, 256)
		if err != nil {
			t.Fatal(err)
		}
		un, err := h.Run(b, compile.LevelUnroll, 256)
		if err != nil {
			t.Fatal(err)
		}
		if un.Norm >= ck.Norm {
			t.Errorf("%s: unrolling did not help (%.3f -> %.3f)", name, ck.Norm, un.Norm)
		}
		// Overhead should drop by a meaningful factor for these benchmarks.
		if (ck.Norm-1) > 0.05 && (un.Norm-1) > 0.8*(ck.Norm-1) {
			t.Errorf("%s: unrolling gain too small (%.3f -> %.3f)", name, ck.Norm, un.Norm)
		}
	}
}

func TestUnrollingLengthensRegions(t *testing.T) {
	// Figure 10: region instruction counts grow with unrolling.
	h := quick()
	b, _ := workload.ByName("water-nsquared")
	ck, err := h.Run(b, compile.LevelCkpt, 256)
	if err != nil {
		t.Fatal(err)
	}
	un, err := h.Run(b, compile.LevelUnroll, 256)
	if err != nil {
		t.Fatal(err)
	}
	if un.RegionInsts <= ck.RegionInsts*1.5 {
		t.Errorf("region length: ckpt %.1f -> unroll %.1f, want >= 1.5x growth",
			ck.RegionInsts, un.RegionInsts)
	}
}

func TestPruningReducesCheckpoints(t *testing.T) {
	h := quick()
	b, _ := workload.ByName("genome")
	un, err := h.Run(b, compile.LevelUnroll, 256)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := h.Run(b, compile.LevelPrune, 256)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Machine.Ckpts >= un.Machine.Ckpts {
		t.Errorf("pruning did not reduce dynamic checkpoints: %d -> %d",
			un.Machine.Ckpts, pr.Machine.Ckpts)
	}
	if pr.Compile.CkptsPruned == 0 {
		t.Error("no checkpoints statically pruned")
	}
}

func TestFig8SmallSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep")
	}
	h := quick()
	tbl, err := h.Fig8([]int{64, 256})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 21+4 {
		t.Errorf("rows = %d, want 25 (21 benchmarks + 4 geomeans)", tbl.Rows())
	}
	s := tbl.String()
	for _, want := range []string{"505.mcf_r", "cpu2017_gmean", "overall_gmean", "Figure 8"} {
		if !strings.Contains(s, want) {
			t.Errorf("Fig8 table missing %q", want)
		}
	}
	// Monotonicity of the overall geomean.
	g64, _ := tbl.Value("overall_gmean", "64")
	g256, _ := tbl.Value("overall_gmean", "256")
	if g256 > g64*1.01 {
		t.Errorf("overall gmean grew with threshold: %.3f -> %.3f", g64, g256)
	}
	if g256 < 1.0 || g256 > 1.25 {
		t.Errorf("overall gmean at 256 = %.3f, want headline-compatible band", g256)
	}
}

func TestHeadlineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("headline sweep")
	}
	h := quick()
	hd, err := h.Headline()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: SPEC 0%, STAMP 12.4%, Splash 9.1%, overall 5.1%. Our shape
	// requirement: SPEC lowest, STAMP highest, everything within a sane band.
	if !(hd.SPEC < hd.STAMP) {
		t.Errorf("suite ordering broken: SPEC %.3f !< STAMP %.3f", hd.SPEC, hd.STAMP)
	}
	if !(hd.Splash < hd.STAMP) {
		t.Errorf("suite ordering broken: Splash %.3f !< STAMP %.3f", hd.Splash, hd.STAMP)
	}
	for name, v := range map[string]float64{
		"SPEC": hd.SPEC, "STAMP": hd.STAMP, "Splash": hd.Splash, "Overall": hd.Overall,
	} {
		if v < -0.02 || v > 0.30 {
			t.Errorf("%s overhead = %.3f, outside plausible band", name, v)
		}
	}
}

func TestGeomeanHelper(t *testing.T) {
	if g := stats.Geomean([]float64{2, 8}); g != 4 {
		t.Errorf("geomean(2,8) = %v", g)
	}
	if g := stats.Geomean(nil); g != 0 {
		t.Errorf("geomean(nil) = %v", g)
	}
	if g := stats.Geomean([]float64{-1, 0, 4}); g != 4 {
		t.Errorf("geomean skips non-positive: %v", g)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := stats.NewTable("T", "a", "b")
	tbl.AddRow("x", 1, 2)
	tbl.AddRule()
	tbl.AddRow("gmean", 1.5, 2.5)
	s := tbl.String()
	for _, want := range []string{"T", "x", "gmean", "1.500"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
	if v, ok := tbl.Value("x", "b"); !ok || v != 2 {
		t.Errorf("Value(x,b) = %v,%v", v, ok)
	}
	if _, ok := tbl.Value("x", "zzz"); ok {
		t.Error("unknown column found")
	}
	col := tbl.Column("a", func(l string) bool { return l == "x" })
	if len(col) != 1 || col[0] != 1 {
		t.Errorf("Column = %v", col)
	}
}

func TestPrefetchMatchesSequential(t *testing.T) {
	// Parallel prefetch must produce bitwise-identical results to direct
	// sequential runs (simulations are deterministic and independent).
	h1 := NewHarness(1)
	h1.Parallelism = 4
	if err := h1.Prefetch([]compile.Level{compile.LevelLICM}, []int{64}); err != nil {
		t.Fatal(err)
	}
	h2 := NewHarness(1)
	h2.Parallelism = 1
	for _, b := range workload.BySuite(workload.SuiteSTAMP) {
		r1, err := h1.Run(b, compile.LevelLICM, 64)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := h2.Run(b, compile.LevelLICM, 64)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Norm != r2.Norm || r1.Machine.Cycles != r2.Machine.Cycles {
			t.Errorf("%s: parallel %v vs sequential %v", b.Name, r1.Norm, r2.Norm)
		}
	}
}

func TestRunCacheHits(t *testing.T) {
	h := quick()
	b, _ := workload.ByName("radix")
	r1, err := h.Run(b, compile.LevelLICM, 256)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := h.Run(b, compile.LevelLICM, 256)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Error("cached result differs")
	}
}

func TestNVMWritesTableShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	h := quick()
	tbl, err := h.NVMWrites()
	if err != nil {
		t.Fatal(err)
	}
	// The region level has no checkpoints at all; +ckpt must be the peak.
	rg, _ := tbl.Value("overall_gmean", "region")
	ck, _ := tbl.Value("overall_gmean", "+ckpt")
	pr, _ := tbl.Value("overall_gmean", "+pruning")
	if rg != 0 {
		t.Errorf("region level ckpt rate = %v, want 0", rg)
	}
	if !(ck > pr) {
		t.Errorf("ckpt rate not reduced by later levels: %v -> %v", ck, pr)
	}
}

func TestSweepCompilesEachConfigurationOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	// A fresh Fig8+Fig9 sweep must simulate, and so compile, each distinct
	// (benchmark, level, threshold) exactly once: Fig8 takes N benchmarks x
	// 2 thresholds at +licm, Fig9 adds N x 5 levels at threshold 256, and
	// the (+licm, 256) column is shared -- 2N + 5N - N = 6N Capri runs, each
	// compiling once inside Run's singleflight, plus N baselines, no matter
	// how the prefetch goroutines race.
	h := NewHarness(1)
	if _, err := h.Fig8([]int{64, 256}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Fig9(); err != nil {
		t.Fatal(err)
	}
	nBench := len(workload.All())
	if got, want := h.SimRuns(), uint64(7*nBench); got != want {
		t.Errorf("sweep simulated %d times, want %d", got, want)
	}
}
