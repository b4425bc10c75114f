package fault

import (
	"testing"

	"capri/internal/workload"
)

// TestContentionTargets: the generator covers every contention workload,
// pins each target to its own core geometry, and filters by core count.
func TestContentionTargets(t *testing.T) {
	all := ContentionTargets(1, 64)
	if want := len(workload.Contention()); len(all) != want {
		t.Fatalf("got %d targets, want %d", len(all), want)
	}
	for _, tgt := range all {
		b, err := workload.ByName(tgt.Bench)
		if err != nil {
			t.Fatal(err)
		}
		if tgt.Cores != b.Threads {
			t.Errorf("%s: target cores %d, workload threads %d", tgt.Bench, tgt.Cores, b.Threads)
		}
		_, cfg, err := tgt.Build()
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Cores != tgt.Cores {
			t.Errorf("%s: built config has %d cores, target pins %d", tgt.Bench, cfg.Cores, tgt.Cores)
		}
	}
	small := ContentionTargets(1, 64, 2, 4)
	if len(small) != 6 {
		t.Fatalf("2/4-core filter kept %d targets, want 6", len(small))
	}
	for _, tgt := range small {
		if tgt.Cores != 2 && tgt.Cores != 4 {
			t.Errorf("%s leaked through the 2/4-core filter (cores %d)", tgt.Bench, tgt.Cores)
		}
	}
}

// TestCampaignContentionCleanTree: the fixed-seed multi-core campaign over
// all three contention workloads at 2, 4, and 8 cores — crash points land
// inside atomic two-phase commits and mid-drain — passes with zero
// unexplained auditor violations, and recovery commutes (RunPlan re-recovers
// every crash image with the core order reversed and compares the images
// byte-for-byte).
func TestCampaignContentionCleanTree(t *testing.T) {
	res, err := RunCampaign(CampaignConfig{
		Seed: 1, Trials: 3, MaxFaults: 3,
		Targets: ContentionTargets(1, 64),
	})
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res)
}
