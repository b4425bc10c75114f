package machine

import (
	"reflect"
	"testing"
)

// TestRegionInstsStallInvariant pins the retired-instruction accounting fix:
// a front-end stall makes the core retry the same store, and the retry must
// not be double-counted into the region body. A 2-entry front end stalls
// constantly; a 32-entry one barely at all — yet the dynamic region shape
// (Figures 10/11) must be identical.
func TestRegionInstsStallInvariant(t *testing.T) {
	cp := compileFor(t, sumProgram(400), 16)

	big, err := New(cp, testConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	if err := big.Run(); err != nil {
		t.Fatal(err)
	}

	cfg := testConfig(16)
	cfg.FrontEndEntries = 2
	small, err := New(cp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := small.Run(); err != nil {
		t.Fatal(err)
	}

	sb, ss := big.Stats(), small.Stats()
	if ss.FrontStalls <= sb.FrontStalls {
		t.Fatalf("stalls %d (2-entry) vs %d (32-entry): test is not exercising the stall path", ss.FrontStalls, sb.FrontStalls)
	}
	if sb.Instret != ss.Instret {
		t.Errorf("Instret %d vs %d: stall retries leaked into retirement", sb.Instret, ss.Instret)
	}
	if sb.Regions != ss.Regions {
		t.Errorf("Regions %d vs %d", sb.Regions, ss.Regions)
	}
	if sb.AvgRegionInsts != ss.AvgRegionInsts {
		t.Errorf("AvgRegionInsts %v vs %v: retried instructions double-counted in the region body", sb.AvgRegionInsts, ss.AvgRegionInsts)
	}
	if sb.AvgRegionStores != ss.AvgRegionStores {
		t.Errorf("AvgRegionStores %v vs %v", sb.AvgRegionStores, ss.AvgRegionStores)
	}
}

// TestRegionInstsDispatchInvariant: the per-region body counters (with the
// boundary instruction itself staying out of the region body) must not
// depend on how the run loop is entered. One Run and the same program
// retired one instruction per RunUntil entry must end with the same region
// shape, cycles and cycle ledger.
func TestRegionInstsDispatchInvariant(t *testing.T) {
	cp := compileFor(t, sumProgram(400), 16)
	whole, err := New(cp, testConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	if err := whole.Run(); err != nil {
		t.Fatal(err)
	}
	stepped, err := New(cp, testConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	for !stepped.Done() {
		if err := stepped.RunUntil(stepped.Instret() + 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := stepped.Run(); err != nil {
		t.Fatal(err)
	}
	w, s := whole.Stats(), stepped.Stats()
	if w.Instret != s.Instret || w.Regions != s.Regions ||
		w.AvgRegionInsts != s.AvgRegionInsts || w.AvgRegionStores != s.AvgRegionStores {
		t.Errorf("region shape depends on run entries:\n  whole:   instret %d regions %d insts %v stores %v\n  stepped: instret %d regions %d insts %v stores %v",
			w.Instret, w.Regions, w.AvgRegionInsts, w.AvgRegionStores,
			s.Instret, s.Regions, s.AvgRegionInsts, s.AvgRegionStores)
	}
	if w.Cycles != s.Cycles {
		t.Errorf("cycles diverge: whole %d stepped %d", w.Cycles, s.Cycles)
	}
	if !reflect.DeepEqual(w.CycleBy, s.CycleBy) {
		t.Errorf("cycle ledger diverges:\n  whole   %+v\n  stepped %+v", w.CycleBy, s.CycleBy)
	}
}

// TestCrashRecoveryCounterCoherence: region accounting must survive a crash.
// The open (uncommitted) region's body counter restarts from zero on the
// recovered machine, replay must not pre-charge it, and the committed-region
// totals across the crash must cover the uninterrupted run's.
func TestCrashRecoveryCounterCoherence(t *testing.T) {
	cp := compileFor(t, sumProgram(300), 16)

	golden, err := New(cp, testConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	if err := golden.Run(); err != nil {
		t.Fatal(err)
	}

	m, err := New(cp, testConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunUntil(777); err != nil {
		t.Fatal(err)
	}
	// At the crash point, per-core accounting must be internally coherent:
	// the open region's body plus the closed regions' bodies never exceed
	// what the core actually retired.
	for _, c := range m.cores {
		if c.sumInsts+c.curInsts > c.instret {
			t.Errorf("core %d: region bodies %d+%d exceed instret %d", c.id, c.sumInsts, c.curInsts, c.instret)
		}
	}
	img, err := m.Crash()
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := Recover(img)
	if err != nil {
		t.Fatal(err)
	}
	// Recovery replays checkpoint slices but retires no instructions: the
	// open region restarts with an empty body.
	for _, c := range r.cores {
		if c.curInsts != 0 || c.sumInsts != 0 || c.instret != 0 {
			t.Errorf("core %d: recovery pre-charged counters curInsts=%d sumInsts=%d instret=%d", c.id, c.curInsts, c.sumInsts, c.instret)
		}
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Output(0), golden.Output(0)) {
		t.Errorf("recovered output %v, want %v", r.Output(0), golden.Output(0))
	}
	// The interrupted region re-executes after recovery, so the combined
	// committed-region count can only meet or exceed the uninterrupted run.
	if got := m.Stats().Regions + r.Stats().Regions; got < golden.Stats().Regions {
		t.Errorf("committed regions lost across crash: %d pre + %d post < %d uninterrupted",
			m.Stats().Regions, r.Stats().Regions, golden.Stats().Regions)
	}
}
