package trace

import (
	"testing"

	"capri/internal/compile"
	"capri/internal/machine"
	"capri/internal/progen"
)

// TestCheckRegionOrderCrashSemantics pins the crash-awareness rules: after a
// crash, region numbers above the drain watermark may commit again (elided
// boundaries never left a durable marker), but drained regions are durable
// and must never recommit.
func TestCheckRegionOrderCrashSemantics(t *testing.T) {
	recommitUndrained := []Event{
		{Kind: KindRegionCommit, Core: 0, Region: 1},
		{Kind: KindPhase2Drain, Core: 0, Region: 1},
		{Kind: KindRegionCommit, Core: 0, Region: 2}, // elided: no drain
		{Kind: KindRegionCommit, Core: 0, Region: 3},
		{Kind: KindCrash},
		{Kind: KindRegionCommit, Core: 0, Region: 2}, // legitimate re-commit
		{Kind: KindRegionCommit, Core: 0, Region: 3},
		{Kind: KindPhase2Drain, Core: 0, Region: 3},
	}
	if err := CheckRegionOrder(recommitUndrained); err != nil {
		t.Errorf("re-commit of undrained regions after crash rejected: %v", err)
	}

	recommitDrained := []Event{
		{Kind: KindRegionCommit, Core: 0, Region: 1},
		{Kind: KindPhase2Drain, Core: 0, Region: 1},
		{Kind: KindCrash},
		{Kind: KindRegionCommit, Core: 0, Region: 1}, // durable region re-commits: bug
	}
	if err := CheckRegionOrder(recommitDrained); err == nil {
		t.Error("re-commit of a drained region after crash accepted")
	}

	// A core that never drained resets to a clean slate.
	neverDrained := []Event{
		{Kind: KindRegionCommit, Core: 0, Region: 1},
		{Kind: KindRegionCommit, Core: 0, Region: 2},
		{Kind: KindCrash},
		{Kind: KindRegionCommit, Core: 0, Region: 1},
	}
	if err := CheckRegionOrder(neverDrained); err != nil {
		t.Errorf("clean-slate re-commit rejected: %v", err)
	}
}

// TestRegionOrderUnderCrashInjection crashes real generated workloads at
// varying points, recovers into the same recorder, runs to completion, and
// checks the in-order-persistence invariant across the whole combined trace
// (commit monotonicity, drain-after-commit, and the crash-reset rules).
func TestRegionOrderUnderCrashInjection(t *testing.T) {
	gcfg := progen.DefaultConfig()
	gcfg.Threads = 2
	for seed := uint64(0); seed < 4; seed++ {
		p := progen.Generate(seed*17+5, gcfg)
		res, err := compile.Compile(p, compile.OptionsForLevel(compile.LevelLICM, 16))
		if err != nil {
			t.Fatal(err)
		}
		cfg := machine.DefaultConfig()
		cfg.Cores = 2
		cfg.Threshold = 16
		cfg.L2Size = 256 << 10
		cfg.DRAMSize = 1 << 20

		// Full-run instruction count calibrates the crash points.
		ref, err := machine.New(res.Program, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Run(); err != nil {
			t.Fatal(err)
		}
		total := ref.Instret()

		for _, frac := range []uint64{4, 2} {
			crashAt := total / frac
			if crashAt == 0 {
				continue
			}
			m, err := machine.New(res.Program, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rec := NewRecorder()
			m.SetTap(rec)
			if err := m.RunUntil(crashAt); err != nil {
				t.Fatal(err)
			}
			img, err := m.Crash() // emits the crash event
			if err != nil {
				t.Fatal(err)
			}
			r, _, err := machine.RecoverInstrumented(img, nil, rec) // emits the recovery event
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Run(); err != nil {
				t.Fatal(err)
			}
			if len(rec.Filter(KindCrash)) != 1 || len(rec.Filter(KindRecovery)) != 1 {
				t.Fatalf("seed %d crash@%d: trace missing crash/recovery edges: %s",
					seed, crashAt, rec.Summary())
			}
			if err := CheckRegionOrder(rec.Events()); err != nil {
				t.Errorf("seed %d crash@%d: %v", seed, crashAt, err)
			}
		}
	}
}
