package fault

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"capri/internal/machine"
)

// hugeCoresPlan names a core count no machine can be built with: before
// machine.Config.Validate bounded Cores, replaying it exhausted memory.
const hugeCoresPlan = `{"schema":"capri/fault-plan/v1","target":{"progen_seed":1,"threshold":64,"cores":1099511627776},"crash_at":10,"faults":[]}`

// TestReplayPlanRejectsHugeCoreCount replays the hostile plan, skipping
// DecodePlan's own bound, and expects the machine to refuse it with an
// error.
func TestReplayPlanRejectsHugeCoreCount(t *testing.T) {
	var p Plan
	if err := json.Unmarshal([]byte(hugeCoresPlan), &p); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayPlan(p); err == nil || !strings.Contains(err.Error(), "cores") {
		t.Fatalf("ReplayPlan error = %v, want a core-count error", err)
	}
	if _, err := DecodePlan([]byte(hugeCoresPlan)); err == nil {
		t.Fatal("DecodePlan accepted the huge core count")
	}
}

// FuzzPlanDecode fuzzes DecodePlan. A plan it accepts has schema
// PlanSchema, known fault kinds, and a target within its documented
// bounds, and it re-encodes to JSON that decodes to the same plan. The
// committed corpus holds a plan of every fault kind and the hostile
// core-count and scale plans.
func FuzzPlanDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := DecodePlan(b)
		if err != nil {
			return
		}
		if p.Schema != PlanSchema {
			t.Fatalf("accepted schema %q", p.Schema)
		}
		tg := p.Target
		if tg.Scale < 0 || tg.Scale > maxPlanScale || tg.Threshold < 0 || tg.Threshold > maxPlanThreshold ||
			tg.Cores < 0 || tg.Cores > machine.MaxCores {
			t.Fatalf("accepted out-of-bounds target %+v", tg)
		}
		for _, ft := range p.Faults {
			switch ft.Kind {
			case KindTornWriteback, KindTornDrain, KindRecoveryCrash, KindDrainError:
			default:
				t.Fatalf("accepted fault kind %q", ft.Kind)
			}
		}
		enc, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		q, err := DecodePlan(enc)
		if err != nil {
			t.Fatalf("re-encoded plan refused: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("re-encoded plan decodes differently:\n got %+v\nwant %+v", q, p)
		}
	})
}
