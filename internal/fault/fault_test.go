package fault

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"capri/internal/machine"
	"capri/internal/recovery"
)

// TestPlanRoundTrip: a plan survives the JSON write/read cycle bit-exact.
func TestPlanRoundTrip(t *testing.T) {
	p := Plan{
		Schema:  PlanSchema,
		Target:  Target{Synth: "rmwsweep", Threshold: 64},
		Seed:    12345,
		CrashAt: 678,
		Faults: []Fault{
			{Kind: KindTornWriteback, Pick: 1, Keep: 2},
			{Kind: KindTornDrain, Core: 1, Keep: 3},
			{Kind: KindRecoveryCrash, Step: 7},
			{Kind: KindDrainError, Core: 0, Region: 9, Fails: 2},
		},
	}
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := p.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPlan(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, p)
	}
}

// TestPlanSchemaRejected: a wrong schema tag fails loading.
func TestPlanSchemaRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	b, _ := json.Marshal(Plan{Schema: "capri/fault-plan/v999", CrashAt: 1})
	if err := writeFileForTest(path, b); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPlan(path); err == nil {
		t.Fatal("unknown schema accepted")
	}
}

// TestGeneratePlanDeterministic: plan generation is a pure function of the
// seed, and every generated fault is well-formed.
func TestGeneratePlanDeterministic(t *testing.T) {
	tgt := Target{ProgenSeed: 99, ProgenShape: 1, Threshold: 64}
	for seed := uint64(1); seed < 50; seed++ {
		a := GeneratePlan(seed, tgt, 10_000, 3, 2)
		b := GeneratePlan(seed, tgt, 10_000, 3, 2)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: generation not deterministic", seed)
		}
		if a.CrashAt < 1 || a.CrashAt >= 10_000 {
			t.Fatalf("seed %d: crash point %d outside the run", seed, a.CrashAt)
		}
		if len(a.Faults) < 1 || len(a.Faults) > 3 {
			t.Fatalf("seed %d: %d faults, want 1..3", seed, len(a.Faults))
		}
		for _, f := range a.Faults {
			switch f.Kind {
			case KindTornWriteback, KindTornDrain, KindRecoveryCrash, KindDrainError:
			default:
				t.Fatalf("seed %d: bad kind %q", seed, f.Kind)
			}
			if f.Kind == KindDrainError && f.Fails >= machine.DefaultRetryMax {
				t.Fatalf("seed %d: drain-error fails %d would exhaust the default retry budget", seed, f.Fails)
			}
		}
	}
}

func writeFileForTest(path string, b []byte) error {
	return os.WriteFile(path, b, 0o644)
}

// TestRunPlanDeterministic: the executor is a pure function of the plan —
// two executions agree on every observable outcome field.
func TestRunPlanDeterministic(t *testing.T) {
	tgt := Target{Synth: "rmwsweep", Threshold: 64}
	p, cfg, err := tgt.Build()
	if err != nil {
		t.Fatal(err)
	}
	g, err := recovery.RunGolden(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := GeneratePlan(7, tgt, g.Instret, 3, 1)
	a := RunPlan(p, cfg, g, plan)
	b := RunPlan(p, cfg, g, plan)
	if a.Crashed != b.Crashed || a.Recoveries != b.Recoveries ||
		a.NestedCrashes != b.NestedCrashes || a.EventsAudited != b.EventsAudited ||
		(a.Err == nil) != (b.Err == nil) {
		t.Fatalf("executor not deterministic:\n a=%+v\n b=%+v", a, b)
	}
	if a.Err != nil {
		t.Fatalf("clean tree failed plan %s: %v", plan.Summary(), a.Err)
	}
}

// TestRunPlanComparesWholeImage: a plan run is judged against the whole
// golden memory image, so a word the recovered run holds but golden lacks is
// a divergence, not only a golden word with the wrong value.
func TestRunPlanComparesWholeImage(t *testing.T) {
	tgt := Target{Synth: "rmwsweep", Threshold: 64}
	p, cfg, err := tgt.Build()
	if err != nil {
		t.Fatal(err)
	}
	g, err := recovery.RunGolden(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := Plan{Schema: PlanSchema, Target: tgt, CrashAt: g.Instret / 2}
	if outc := RunPlan(p, cfg, g, plan); outc.Err != nil || !outc.Crashed {
		t.Fatalf("unmodified golden: crashed %v, err %v", outc.Crashed, outc.Err)
	}
	var hi uint64
	for a := range g.Mem {
		hi = max(hi, a)
	}
	delete(g.Mem, hi)
	err = RunPlan(p, cfg, g, plan).Err
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("mem[%#x]", hi)) {
		t.Fatalf("recovered word absent from golden not reported at %#x: %v", hi, err)
	}
}

// TestCampaignCleanTree: a seeded campaign over the synthetic workload, a
// slice of the progen corpus, and one paper benchmark passes with zero
// failures, zero audit violations, and nonzero injected-fault coverage.
func TestCampaignCleanTree(t *testing.T) {
	targets := append(SynthTargets(64), CorpusTargets(12, 64)...)
	targets = append(targets, Target{Bench: "hotrmw", Threshold: 64})
	res, err := RunCampaign(CampaignConfig{Seed: 1, Trials: 3, MaxFaults: 3, Targets: targets})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 0 {
		f := res.Failures[0]
		t.Fatalf("clean tree failed: plan %s shrunk to %s: %s",
			f.Plan.Summary(), f.Shrunk.Summary(), f.Err)
	}
	if res.Crashes == 0 || res.Faults == 0 || res.EventsAudited == 0 {
		t.Fatalf("campaign exercised nothing: %+v", res)
	}
	if res.Recoveries < res.Crashes {
		t.Fatalf("crashed %d times but only recovered %d", res.Crashes, res.Recoveries)
	}
}

// mutationCampaign runs a small fixed-seed campaign with one protocol
// mutation armed and asserts it is caught with a minimal reproducer.
func mutationCampaign(t *testing.T, flag *bool) Failure {
	t.Helper()
	*flag = true
	defer func() { *flag = false }()
	targets := append(SynthTargets(64), CorpusTargets(26, 64)...)
	res, err := RunCampaign(CampaignConfig{Seed: 1, Trials: 4, MaxFaults: 3, Targets: targets})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) == 0 {
		t.Fatal("mutated protocol survived the campaign undetected")
	}
	f := res.Failures[0]
	if len(f.Shrunk.Faults) > 3 {
		t.Fatalf("shrunk plan still has %d faults (> 3): %s", len(f.Shrunk.Faults), f.Shrunk.Summary())
	}
	if len(f.Shrunk.Faults) > len(f.Plan.Faults) {
		t.Fatalf("shrinking grew the plan: %d -> %d faults", len(f.Plan.Faults), len(f.Shrunk.Faults))
	}
	// The minimal plan must still reproduce the failure from its JSON alone.
	outc, err := ReplayPlan(f.Shrunk)
	if err != nil {
		t.Fatal(err)
	}
	if outc.Err == nil {
		t.Fatalf("shrunk plan %s does not reproduce", f.Shrunk.Summary())
	}
	return f
}

// TestMutationSkipUndo: dropping recovery's phase B (uncommitted stores
// never rolled back) is caught by the campaign with a <= 3 fault plan.
func TestMutationSkipUndo(t *testing.T) {
	f := mutationCampaign(t, &machine.Mutations.SkipUndo)
	t.Logf("skip-undo caught: %s (%s)", f.Shrunk.Summary(), f.Err)
}

// TestMutationSkipMarkerCheck: replaying uncommitted tails as if committed
// is caught by the campaign with a <= 3 fault plan.
func TestMutationSkipMarkerCheck(t *testing.T) {
	f := mutationCampaign(t, &machine.Mutations.SkipMarkerCheck)
	t.Logf("skip-marker caught: %s (%s)", f.Shrunk.Summary(), f.Err)
}

// TestMutationDropTornPrefix: tearing whole lines regardless of the
// persisted prefix and the later-write ownership guard is caught by the
// campaign with a <= 3 fault plan.
func TestMutationDropTornPrefix(t *testing.T) {
	f := mutationCampaign(t, &machine.Mutations.DropTornPrefix)
	t.Logf("drop-torn-prefix caught: %s (%s)", f.Shrunk.Summary(), f.Err)
}

// TestShrinkKeepsUnreproducible: a plan that passes is returned unchanged.
func TestShrinkKeepsUnreproducible(t *testing.T) {
	tgt := Target{Synth: "rmwsweep", Threshold: 64}
	p, cfg, err := tgt.Build()
	if err != nil {
		t.Fatal(err)
	}
	g, err := recovery.RunGolden(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := GeneratePlan(3, tgt, g.Instret, 3, 1)
	shrunk, runs := Shrink(p, cfg, g, plan)
	if !reflect.DeepEqual(shrunk, plan) {
		t.Fatalf("passing plan mutated by shrink: %+v", shrunk)
	}
	if runs != 1 {
		t.Fatalf("shrink spent %d runs on a passing plan, want 1", runs)
	}
}

// TestDrainExhaustionIsExpected: a plan whose drain errors exceed the retry
// budget degrades to a structured stop, which the executor treats as a pass
// (Outcome.Exhausted), never as a campaign failure.
func TestDrainExhaustionIsExpected(t *testing.T) {
	tgt := Target{Synth: "rmwsweep", Threshold: 64}
	p, cfg, err := tgt.Build()
	if err != nil {
		t.Fatal(err)
	}
	g, err := recovery.RunGolden(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := Plan{
		Schema:  PlanSchema,
		Target:  tgt,
		CrashAt: g.Instret / 2,
		Faults: []Fault{
			{Kind: KindDrainError, Core: 0, Fails: machine.DefaultRetryMax + 4},
		},
	}
	outc := RunPlan(p, cfg, g, plan)
	if outc.Err != nil {
		t.Fatalf("exhaustion reported as failure: %v", outc.Err)
	}
	if !outc.Exhausted {
		t.Fatalf("retry budget not exhausted: %+v", outc)
	}
	if outc.DrainRetries == 0 {
		t.Fatal("no retries recorded")
	}
}

// TestCorpusTargetsSchedule: the corpus target table matches the sweeps'
// seed schedule and shape cycle.
func TestCorpusTargetsSchedule(t *testing.T) {
	ts := CorpusTargets(8, 64)
	if len(ts) != 8 {
		t.Fatalf("got %d targets", len(ts))
	}
	for i, tgt := range ts {
		if want := uint64(i)*0x9e3779b9 + 1; tgt.ProgenSeed != want {
			t.Fatalf("target %d: seed %d, want %d", i, tgt.ProgenSeed, want)
		}
		if tgt.ProgenShape != i%len(CorpusShapes) {
			t.Fatalf("target %d: shape %d", i, tgt.ProgenShape)
		}
	}
}

// TestCampaignParallelDeterminism: the same campaign at jobs 1 and jobs 4
// produces identical aggregates.
func TestCampaignParallelDeterminism(t *testing.T) {
	targets := append(SynthTargets(64), CorpusTargets(8, 64)...)
	base := CampaignConfig{Seed: 7, Trials: 2, MaxFaults: 3, Targets: targets}
	seq, err := RunCampaign(base)
	if err != nil {
		t.Fatal(err)
	}
	par := base
	par.Jobs = 4
	pres, err := RunCampaign(par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, pres) {
		t.Fatalf("parallel campaign diverged:\nseq %+v\npar %+v", seq, pres)
	}
}
