package capri

// Benchmarks regenerating the paper's tables and figures, one testing.B
// target per artifact:
//
//	go test -bench=. -benchmem
//
// Each benchmark runs the corresponding sweep once per iteration and reports
// the headline metric as custom benchmark outputs (ns/op reflects harness
// cost, the figures themselves are the reported metrics). For the full
// printed tables use `go run ./cmd/capribench -all`.

import (
	"fmt"
	"testing"

	"capri/internal/compile"
	"capri/internal/figures"
	"capri/internal/isa"
	"capri/internal/machine"
	"capri/internal/workload"
)

// benchScale keeps benchmark wall-clock reasonable while preserving the
// workloads' steady-state behaviour.
const benchScale = 1

// BenchmarkTable1Config renders the simulator configuration (paper Table 1).
func BenchmarkTable1Config(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		s = machine.DefaultConfig().Table1()
	}
	if len(s) == 0 {
		b.Fatal("empty Table 1")
	}
}

// BenchmarkFig8Thresholds regenerates Figure 8: normalized execution cycles
// across store thresholds for all 21 benchmarks. Reported metrics are the
// overall geometric means at the swept thresholds.
func BenchmarkFig8Thresholds(b *testing.B) {
	h := figures.NewHarness(benchScale)
	ths := []int{32, 64, 128, 256, 512, 1024}
	var tbl interface {
		Value(string, string) (float64, bool)
	}
	for i := 0; i < b.N; i++ {
		t, err := h.Fig8(ths)
		if err != nil {
			b.Fatal(err)
		}
		tbl = t
	}
	for _, th := range ths {
		if v, ok := tbl.Value("overall_gmean", fmt.Sprint(th)); ok {
			b.ReportMetric(v, fmt.Sprintf("norm_th%d", th))
		}
	}
}

// BenchmarkFig9CompilerOpts regenerates Figure 9: normalized cycles under
// cumulative compiler optimizations at threshold 256. Reported metrics are
// the overall geomeans per level.
func BenchmarkFig9CompilerOpts(b *testing.B) {
	h := figures.NewHarness(benchScale)
	var tbl interface {
		Value(string, string) (float64, bool)
	}
	for i := 0; i < b.N; i++ {
		t, err := h.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		tbl = t
	}
	for _, l := range compile.Levels {
		if v, ok := tbl.Value("overall_gmean", l.String()); ok {
			b.ReportMetric(v, "norm_"+metricName(l.String()))
		}
	}
}

// BenchmarkFig10RegionLength regenerates Figure 10: average instructions per
// dynamic region, per optimization level.
func BenchmarkFig10RegionLength(b *testing.B) {
	h := figures.NewHarness(benchScale)
	var tbl interface {
		Value(string, string) (float64, bool)
	}
	for i := 0; i < b.N; i++ {
		t, err := h.Fig10()
		if err != nil {
			b.Fatal(err)
		}
		tbl = t
	}
	for _, l := range compile.Levels {
		if v, ok := tbl.Value("overall_gmean", l.String()); ok {
			b.ReportMetric(v, "insts_"+metricName(l.String()))
		}
	}
}

// BenchmarkFig11RegionStores regenerates Figure 11: average stores
// (checkpoints included) per dynamic region, per optimization level.
func BenchmarkFig11RegionStores(b *testing.B) {
	h := figures.NewHarness(benchScale)
	var tbl interface {
		Value(string, string) (float64, bool)
	}
	for i := 0; i < b.N; i++ {
		t, err := h.Fig11()
		if err != nil {
			b.Fatal(err)
		}
		tbl = t
	}
	for _, l := range compile.Levels {
		if v, ok := tbl.Value("overall_gmean", l.String()); ok {
			b.ReportMetric(v, "stores_"+metricName(l.String()))
		}
	}
}

// BenchmarkHeadline regenerates the §6.2 headline per-suite overheads
// (paper: SPEC 0%, STAMP 12.4%, Splash-3 9.1%, overall 5.1%).
func BenchmarkHeadline(b *testing.B) {
	h := figures.NewHarness(benchScale)
	var hd figures.Headline
	for i := 0; i < b.N; i++ {
		var err error
		hd, err = h.Headline()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*hd.SPEC, "pct_spec")
	b.ReportMetric(100*hd.STAMP, "pct_stamp")
	b.ReportMetric(100*hd.Splash, "pct_splash")
	b.ReportMetric(100*hd.Overall, "pct_overall")
}

// BenchmarkCompileSuite measures compiler throughput over the whole suite —
// an implementation benchmark, not a paper figure, useful for tracking the
// pass pipeline's cost.
func BenchmarkCompileSuite(b *testing.B) {
	progs := make([]*Program, 0, 19)
	for _, w := range workload.All() {
		progs = append(progs, w.Build(benchScale))
	}
	opts := compile.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			if _, err := compile.Compile(p, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (instructions
// per second) on one store-dense benchmark.
func BenchmarkSimulatorThroughput(b *testing.B) {
	w, err := workload.ByName("labyrinth")
	if err != nil {
		b.Fatal(err)
	}
	src := w.Build(benchScale)
	res, err := compile.Compile(src, compile.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.L2Size = 2 << 20
	cfg.DRAMSize = 16 << 20
	var instret uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := machine.New(res.Program, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
		instret = m.Instret()
	}
	b.ReportMetric(float64(instret)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// BenchmarkSimulatorThroughputMT measures multi-core simulation speed on one
// lock-dense Splash kernel — the simulator-performance number behind the
// fig8-mt4 perf figure.
func BenchmarkSimulatorThroughputMT(b *testing.B) {
	w, err := workload.ByName("water-nsquared")
	if err != nil {
		b.Fatal(err)
	}
	src := w.Build(benchScale)
	res, err := compile.Compile(src, compile.OptionsForLevel(compile.LevelLICM, 256))
	if err != nil {
		b.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	var instret uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := machine.New(res.Program, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
		instret = m.Instret()
	}
	b.ReportMetric(float64(instret)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// BenchmarkRecovery measures the crash-image harvest plus recovery-protocol
// latency at the default threshold.
func BenchmarkRecovery(b *testing.B) {
	w, err := workload.ByName("genome")
	if err != nil {
		b.Fatal(err)
	}
	src := w.Build(benchScale)
	res, err := compile.Compile(src, compile.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.L2Size = 2 << 20
	cfg.DRAMSize = 16 << 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := machine.New(res.Program, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.RunUntil(50_000); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		img, err := m.Crash()
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := machine.Recover(img); err != nil {
			b.Fatal(err)
		}
	}
}

func metricName(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r == '+' {
			continue
		}
		out = append(out, r)
	}
	return string(out)
}

// BenchmarkAblation quantifies the design choices DESIGN.md calls out: the
// writeback valid-bit scan (§5.3.2), boundary elision and entry merging
// (§5.2.1). The micro-workload is built to engage all three mechanisms: hot
// words rewritten every iteration (merge + scan material), a cold streaming
// sweep large enough to evict through a small L2 (writeback traffic), and a
// store-free inner loop (elision material). Reported metrics are cycles and
// NVM write operations relative to the full design.
func BenchmarkAblation(b *testing.B) {
	b.Run("merge+elide", func(b *testing.B) { ablationRun(b, true) })
	b.Run("scan", func(b *testing.B) { ablationRun(b, false) })
}

func ablationRun(b *testing.B, multiRewrite bool) {
	src := ablationProgram(multiRewrite)
	res, err := compile.Compile(src, compile.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	base := machine.DefaultConfig()
	base.Cores = 1
	// Stress configuration (cf. TestWritebackRaceFig7): tiny caches make
	// dirty writebacks race the proxy path, and a slow path keeps entries in
	// the buffers long enough for merging and scans to matter.
	base.L1Size = 512
	base.L1Ways = 1
	base.L2Size = 4 << 10
	base.L2Ways = 1
	base.DRAMSize = 16 << 20
	base.ProxyLatency = 400
	base.ProxyInterval = 32

	noScan := base
	noScan.NoScanInvalidate = true
	noElide := base
	noElide.NoElision = true
	noMerge := base
	noMerge.NoFrontMerge = true
	noMerge.NoBackMerge = true

	run := func(cfg machine.Config) machine.Stats {
		m, err := machine.New(res.Program, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
		return m.Stats()
	}

	var std, sScan, sElide, sMerge machine.Stats
	for i := 0; i < b.N; i++ {
		std = run(base)
		sScan = run(noScan)
		sElide = run(noElide)
		sMerge = run(noMerge)
	}
	// Extra NVM write operations each ablation costs versus the full design,
	// plus the mechanism activity of the full design itself.
	b.ReportMetric(float64(int64(sScan.NVMWrites)-int64(std.NVMWrites)), "xnvmw_noScan")
	b.ReportMetric(float64(int64(sElide.NVMWrites)-int64(std.NVMWrites)), "xnvmw_noElide")
	b.ReportMetric(float64(int64(sMerge.NVMWrites)-int64(std.NVMWrites)), "xnvmw_noMerge")
	b.ReportMetric(float64(int64(sScan.Cycles)-int64(std.Cycles)), "xcyc_noScan")
	b.ReportMetric(float64(int64(sMerge.Cycles)-int64(std.Cycles)), "xcyc_noMerge")
	b.ReportMetric(float64(std.ScanHits+std.WindowHits), "scanhits_std")
	b.ReportMetric(float64(std.FrontMerges), "merges_std")
	b.ReportMetric(float64(std.ElidedBds), "elided_std")
}

// ablationProgram builds the hot/cold/store-free micro used by the ablation
// benchmarks. multiRewrite adds same-word rewrites within one iteration
// (entry-merging material); without it, single rewrites per iteration leave
// a window for dirty writebacks to race buffered entries (valid-bit scan
// material).
func ablationProgram(multiRewrite bool) *Program {
	bd := NewBuilder("ablation")
	f := bd.Func("main")
	entry := f.Block()
	header := f.Block()
	body := f.Block()
	innerHdr := f.Block()
	innerBody := f.Block()
	latch := f.Block()
	exit := f.Block()

	const (
		rI    = isa.Reg(8)
		rN    = isa.Reg(9)
		rHot  = isa.Reg(10)
		rCold = isa.Reg(11)
		rV    = isa.Reg(12)
		rOff  = isa.Reg(13)
		rJ    = isa.Reg(14)
		rJN   = isa.Reg(15)
		rAcc  = isa.Reg(16)
	)

	f.SetBlock(entry)
	f.MovI(isa.SP, int64(StackBase(0)))
	f.MovI(rI, 0)
	f.MovI(rN, 4000)
	f.MovI(rHot, int64(HeapBase))
	f.MovI(rCold, int64(HeapBase)+1<<20)
	f.MovI(rV, 1)
	f.MovI(rAcc, 0)
	f.Br(header)

	f.SetBlock(header)
	f.BrIf(rI, isa.CondGE, rN, exit, body)

	f.SetBlock(body)
	// Hot rewrites: the same words stored repeatedly within one iteration,
	// so entries are still buffered when the rewrite arrives (merge + scan).
	f.Add(rV, rV, rI)
	f.Store(rHot, 0, rV)
	f.Store(rHot, 8, rI)
	f.Store(rHot, 16, rV)
	if multiRewrite {
		f.AddI(rV, rV, 3)
		f.Store(rHot, 0, rV)
		f.Store(rHot, 8, rV)
		f.AddI(rV, rV, 5)
		f.Store(rHot, 0, rV)
	}
	// Cold streaming sweep over 4 MB: evicts through the small L2.
	f.MulI(rOff, rI, 64)
	f.OpI(isa.OpAndI, rOff, rOff, (1<<22)-1)
	f.Add(rOff, rOff, rCold)
	f.Store(rOff, 0, rV)
	// Store-free inner loop (elision material).
	f.MovI(rJ, 0)
	f.MovI(rJN, 4)
	f.Br(innerHdr)

	f.SetBlock(innerHdr)
	f.BrIf(rJ, isa.CondGE, rJN, latch, innerBody)
	f.SetBlock(innerBody)
	f.Op3(isa.OpXor, rAcc, rAcc, rV)
	f.AddI(rJ, rJ, 1)
	f.Br(innerHdr)

	f.SetBlock(latch)
	f.AddI(rI, rI, 1)
	f.Br(header)

	f.SetBlock(exit)
	f.Emit(rAcc)
	f.Halt()
	bd.SetThreadEntries(f)
	return bd.Program()
}

// BenchmarkInlining quantifies the region-lengthening inlining extension
// (the paper's §6.3 future work) on the call-bound benchmarks: normalized
// cycles and average region length with and without inlining.
func BenchmarkInlining(b *testing.B) {
	for _, name := range []string{"531.deepsjeng_r", "vacation"} {
		name := name
		b.Run(name, func(b *testing.B) {
			w, err := workload.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			src := w.Build(benchScale)
			cfgB := machine.DefaultConfig()
			cfgB.Capri = false
			cfgB.L2Size = 2 << 20
			cfgB.DRAMSize = 16 << 20
			mb, err := machine.New(src, cfgB)
			if err != nil {
				b.Fatal(err)
			}
			if err := mb.Run(); err != nil {
				b.Fatal(err)
			}
			base := mb.Cycles()

			run := func(inline bool) machine.Stats {
				opts := compile.DefaultOptions()
				opts.Inline = inline
				res, err := compile.Compile(src, opts)
				if err != nil {
					b.Fatal(err)
				}
				cfg := cfgB
				cfg.Capri = true
				cfg.Threshold = opts.Threshold
				m, err := machine.New(res.Program, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := m.Run(); err != nil {
					b.Fatal(err)
				}
				return m.Stats()
			}

			var off, on machine.Stats
			for i := 0; i < b.N; i++ {
				off = run(false)
				on = run(true)
			}
			b.ReportMetric(float64(off.Cycles)/float64(base), "norm_noInline")
			b.ReportMetric(float64(on.Cycles)/float64(base), "norm_inline")
			b.ReportMetric(off.AvgRegionInsts, "rgInsts_noInline")
			b.ReportMetric(on.AvgRegionInsts, "rgInsts_inline")
		})
	}
}
