package machine

import (
	"reflect"
	"testing"

	"capri/internal/isa"
	"capri/internal/prog"
	"capri/internal/stats"
)

// stridedStoreProgram stores to n line-strided addresses — a working set that
// overflows L1 and L2, forcing dirty evictions down to the memory controller.
func stridedStoreProgram(n int64) *prog.Program {
	bd := prog.NewBuilder("stride")
	f := bd.Func("main")
	entry := f.Block()
	header := f.Block()
	body := f.Block()
	exit := f.Block()

	f.SetBlock(entry)
	f.MovI(0, 0) // i
	f.MovI(1, n)
	f.MovI(3, int64(HeapBase))
	f.Br(header)

	f.SetBlock(header)
	f.BrIf(0, isa.CondGE, 1, exit, body)

	f.SetBlock(body)
	f.Store(3, 0, 0)
	f.AddI(3, 3, 64) // next cache line
	f.AddI(0, 0, 1)
	f.Br(header)

	f.SetBlock(exit)
	f.Halt()
	return bd.Program()
}

// checkLedger asserts the cycle-accounting invariant the explain tooling
// depends on: for every core, the per-cause buckets sum exactly to the core's
// cycle count, and Stats.StallCycles is the stall causes' share of every
// core's ledger.
func checkLedger(t *testing.T, m *Machine) {
	t.Helper()
	var stalls uint64
	for _, c := range m.cores {
		for cc := CycleCause(0); cc < NumCycleCauses; cc++ {
			if cc.IsStall() {
				stalls += c.cycleBy[cc]
			}
		}
	}
	if got := m.Stats().StallCycles; got != stalls {
		t.Errorf("Stats.StallCycles = %d, stall causes in the ledger sum to %d", got, stalls)
	}
	for _, c := range m.cores {
		var sum uint64
		for _, n := range c.cycleBy {
			sum += n
		}
		if sum != c.cycle {
			t.Errorf("core %d: ledger sums to %d, cycle count is %d (diff %d)",
				c.id, sum, c.cycle, int64(c.cycle)-int64(sum))
			for cc := CycleCause(0); cc < NumCycleCauses; cc++ {
				if c.cycleBy[cc] != 0 {
					t.Logf("  %-10s %d", cc, c.cycleBy[cc])
				}
			}
		}
	}
}

// TestCycleLedgerExhaustive runs baseline, Capri, and multithreaded-Capri
// machines and checks that every cycle was attributed to a cause.
func TestCycleLedgerExhaustive(t *testing.T) {
	// Baseline: no proxy machinery, only issue + memory causes.
	{
		cfg := testConfig(64)
		cfg.Capri = false
		m, err := New(sumProgram(2000), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		checkLedger(t, m)
		s := m.Stats()
		for _, cc := range []CycleCause{CauseCkpt, CauseBoundary, CauseFrontFull, CauseBackPressure, CauseNVMQueue, CauseDrainWait} {
			if s.CycleBy[cc] != 0 {
				t.Errorf("baseline has %d cycles of Capri-only cause %s", s.CycleBy[cc], cc)
			}
		}
	}

	// Capri with a tight threshold, so backpressure stalls actually occur.
	{
		cfg := testConfig(4)
		m, err := New(compileFor(t, sumProgram(2000), 4), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		checkLedger(t, m)
	}

	// Multithreaded Capri: locks, atomics, cross-core invalidations.
	{
		cfg := testConfig(16)
		m, err := New(compileMT(t, mtCounterProgram(300), 16), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		checkLedger(t, m)
	}
}

// TestStatsCycleByMatchesCycles checks that the critical core's ledger
// published in Stats sums to the makespan — the identity `capribench
// -explain` relies on for zero-residual decomposition.
func TestStatsCycleByMatchesCycles(t *testing.T) {
	cfg := testConfig(16)
	m, err := New(compileFor(t, sumProgram(1000), 16), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	var sum uint64
	for _, n := range s.CycleBy {
		sum += n
	}
	if sum != s.Cycles {
		t.Fatalf("Stats.CycleBy sums to %d, Cycles = %d", sum, s.Cycles)
	}
}

// TestCycleLedgerContinuityAcrossRecovery pins metrics continuity across a
// crash/recover cycle: the pre-crash machine's ledger is coherent at the
// crash point, the recovered machine's ledger is a fresh epoch that sums
// exactly to its own cycle count (no pre-crash cycles leak in, none are
// double-counted), and the two epochs' histograms merge coherently — counts
// and sums add exactly, min/max form the envelope.
func TestCycleLedgerContinuityAcrossRecovery(t *testing.T) {
	cfg := testConfig(8)
	p := compileFor(t, sumProgram(1500), 8)

	golden, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := golden.Run(); err != nil {
		t.Fatal(err)
	}

	m, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	preMet := m.EnableMetrics()
	if err := m.RunUntil(golden.Instret() / 2); err != nil {
		t.Fatal(err)
	}
	if m.Done() {
		t.Fatal("program finished before the crash point")
	}
	checkLedger(t, m)
	preStats := m.Stats()
	var preSum uint64
	for _, n := range preStats.CycleBy {
		preSum += n
	}
	if preSum != preStats.Cycles {
		t.Fatalf("pre-crash Stats.CycleBy sums to %d, Cycles = %d", preSum, preStats.Cycles)
	}
	preSnap := *preMet // value copy: Crash/recovery must not retroactively mutate the epoch

	img, err := m.Crash()
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := Recover(img)
	if err != nil {
		t.Fatal(err)
	}
	postMet := r.EnableMetrics()
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	checkLedger(t, r)
	postStats := r.Stats()
	var postSum uint64
	for _, n := range postStats.CycleBy {
		postSum += n
	}
	if postSum != postStats.Cycles {
		t.Fatalf("post-recovery Stats.CycleBy sums to %d, Cycles = %d (pre-crash cycles double-counted?)",
			postSum, postStats.Cycles)
	}
	// The recovered epoch re-executes only from the last committed boundary:
	// its makespan must not include the already-persisted pre-crash work.
	if postStats.Cycles >= preStats.Cycles+golden.Cycles() {
		t.Errorf("post-recovery epoch spans %d cycles — more than crash point + full run (%d + %d)",
			postStats.Cycles, preStats.Cycles, golden.Cycles())
	}
	if got, want := r.Output(0), golden.Output(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered output %v, golden %v", got, want)
	}

	// Histogram merge coherence across the two epochs.
	pairs := []struct {
		name      string
		pre, post *stats.Hist
	}{
		{"front-end occupancy", &preSnap.FrontOcc, &postMet.FrontOcc},
		{"region insts", &preSnap.RegionInsts, &postMet.RegionInsts},
		{"region stores", &preSnap.RegionStores, &postMet.RegionStores},
		{"commit latency", &preSnap.CommitLat, &postMet.CommitLat},
	}
	for _, pr := range pairs {
		if pr.pre.Count == 0 || pr.post.Count == 0 {
			t.Errorf("%s: epoch histogram empty (pre=%d post=%d samples)", pr.name, pr.pre.Count, pr.post.Count)
			continue
		}
		var merged stats.Hist
		merged.Merge(pr.pre)
		merged.Merge(pr.post)
		if merged.Count != pr.pre.Count+pr.post.Count {
			t.Errorf("%s: merged count %d, want %d+%d", pr.name, merged.Count, pr.pre.Count, pr.post.Count)
		}
		if merged.Sum != pr.pre.Sum+pr.post.Sum {
			t.Errorf("%s: merged sum %d, want %d+%d", pr.name, merged.Sum, pr.pre.Sum, pr.post.Sum)
		}
		if merged.Min > pr.pre.Min || merged.Min > pr.post.Min {
			t.Errorf("%s: merged min %d above an epoch min (%d, %d)", pr.name, merged.Min, pr.pre.Min, pr.post.Min)
		}
		if merged.Max < pr.pre.Max || merged.Max < pr.post.Max {
			t.Errorf("%s: merged max %d below an epoch max (%d, %d)", pr.name, merged.Max, pr.pre.Max, pr.post.Max)
		}
	}
}

// TestMetricsCollection checks that enabling metrics populates the occupancy
// and latency histograms and does not perturb timing.
func TestMetricsCollection(t *testing.T) {
	cfg := testConfig(8)
	p := compileFor(t, stridedStoreProgram(8000), 8)

	plain, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Run(); err != nil {
		t.Fatal(err)
	}

	instr, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mt := instr.EnableMetrics()
	if instr.EnableMetrics() != mt {
		t.Fatal("EnableMetrics not idempotent")
	}
	if err := instr.Run(); err != nil {
		t.Fatal(err)
	}

	if got, want := instr.Cycles(), plain.Cycles(); got != want {
		t.Fatalf("metrics changed timing: %d cycles vs %d", got, want)
	}
	if mt.FrontOcc.Count == 0 || mt.RegionInsts.Count == 0 || mt.RegionStores.Count == 0 {
		t.Errorf("boundary-sampled histograms empty: front=%d insts=%d stores=%d",
			mt.FrontOcc.Count, mt.RegionInsts.Count, mt.RegionStores.Count)
	}
	if mt.CommitLat.Count == 0 {
		t.Error("commit-latency histogram empty")
	}
	if mt.CommitLat.Min == 0 {
		t.Error("commit latency of zero cycles recorded — phase 2 cannot complete instantly")
	}
	if mt.WPQDepth.Count == 0 {
		t.Error("WPQ-depth histogram empty (no controller writebacks sampled)")
	}
	if mt.DrainQueue.Count == 0 {
		t.Error("drain-queue histogram empty (no phase-2 bookings sampled)")
	}
	// Commit latency must be at least the proxy path latency: the boundary
	// has to travel front-end -> path -> back-end before phase 2 can start.
	if mt.CommitLat.Min < cfg.ProxyLatency {
		t.Errorf("min commit latency %d < proxy latency %d", mt.CommitLat.Min, cfg.ProxyLatency)
	}
}
