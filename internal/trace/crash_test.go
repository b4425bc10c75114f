package trace

import (
	"testing"

	"capri/internal/audit"
	"capri/internal/compile"
	"capri/internal/machine"
	"capri/internal/progen"
)

// TestCheckRegionOrderCrashSemantics pins the crash-awareness rules over
// streams the trace shows: after a crash and its recovery, region numbers
// above the drain watermark may commit again (elided boundaries never left
// a durable marker), but drained regions are durable and must never
// recommit.
func TestCheckRegionOrderCrashSemantics(t *testing.T) {
	crash := []audit.Event{{Kind: audit.EvCrash}, {Kind: audit.EvRecoveryDone, Count: 2}}
	cat := func(before []audit.Event, after ...audit.Event) []audit.Event {
		return append(append(append([]audit.Event(nil), before...), crash...), after...)
	}
	for _, tc := range []struct {
		name   string
		rule   string // "" for a legal stream
		events []audit.Event
	}{
		{"re-commit of undrained regions", "", cat(
			[]audit.Event{commitEv(0, 1), drainEv(0, 1), commitEv(0, 2), commitEv(0, 3)}, // 2 elided: no drain
			commitEv(0, 2), commitEv(0, 3), drainEv(0, 3))},
		{"re-commit of a drained region", "commit-order", cat(
			[]audit.Event{commitEv(0, 1), drainEv(0, 1)},
			commitEv(0, 1))},
		{"never-drained core restarts clean", "", cat(
			[]audit.Event{commitEv(0, 1), commitEv(0, 2)},
			commitEv(0, 1))},
	} {
		if got := judge(t, tc.events); got != tc.rule {
			t.Errorf("%s: violated rule %q, want %q", tc.name, got, tc.rule)
		}
	}
}

// TestRegionOrderUnderCrashInjection crashes real generated workloads at
// varying points, recovers into the same recorder and auditor, runs to
// completion, and requires zero violations across the whole combined
// stream: the auditor's region-order rules re-base at recovery, so regions
// above the drain watermark may commit again and drained ones may not.
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
			aud := audit.NewAuditor(m.AuditOptions())
			tap := audit.Tee(rec, aud)
			m.SetTap(tap)
			if err := m.RunUntil(crashAt); err != nil {
				t.Fatal(err)
			}
			img, err := m.Crash() // emits the crash event
			if err != nil {
				t.Fatal(err)
			}
			r, _, err := machine.RecoverInstrumented(img, nil, tap) // emits the recovery event
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Run(); err != nil {
				t.Fatal(err)
			}
			if countKind(rec, audit.EvCrash) != 1 || countKind(rec, audit.EvRecoveryDone) != 1 {
				t.Fatalf("seed %d crash@%d: trace missing crash/recovery edges: %s",
					seed, crashAt, rec.Summary())
			}
			if err := aud.Err(); err != nil {
				t.Errorf("seed %d crash@%d: %v", seed, crashAt, err)
			}
		}
	}
}
