package fault

import (
	"fmt"
	"time"

	"capri/internal/machine"
	"capri/internal/prog"
	"capri/internal/recovery"
	"capri/internal/sweep"
	"capri/internal/workload"
)

// CorpusTargets returns the soak campaign's progen targets: `seeds` corpus
// programs cycling the four generation shapes under the corpus seed
// schedule (the same 104-program universe the differential sweep covers).
func CorpusTargets(seeds, threshold int) []Target {
	out := make([]Target, 0, seeds)
	for s := 0; s < seeds; s++ {
		out = append(out, Target{
			ProgenSeed:  uint64(s)*0x9e3779b9 + 1,
			ProgenShape: s % len(CorpusShapes),
			Threshold:   threshold,
		})
	}
	return out
}

// BenchTargets returns one target per paper benchmark.
func BenchTargets(scale, threshold int) []Target {
	var out []Target
	for _, b := range workload.All() {
		out = append(out, Target{Bench: b.Name, Scale: scale, Threshold: threshold})
	}
	return out
}

// ContentionTargets returns one target per cross-core contention workload
// whose thread count is in cores (nil: all of them), each pinned to its own
// geometry. These are the campaign's multi-core stress set: shared
// fetch-and-add lines, an MPMC persistent queue, and lock-protected record
// updates, with crash points landing inside atomic two-phase commits and
// mid-drain.
func ContentionTargets(scale, threshold int, cores ...int) []Target {
	var out []Target
	for _, b := range workload.Contention() {
		if len(cores) > 0 {
			keep := false
			for _, c := range cores {
				if b.Threads == c {
					keep = true
					break
				}
			}
			if !keep {
				continue
			}
		}
		out = append(out, Target{Bench: b.Name, Scale: scale, Threshold: threshold, Cores: b.Threads})
	}
	return out
}

// CampaignConfig parameterizes a fault campaign.
type CampaignConfig struct {
	Seed      uint64        // base seed; trial seeds derive deterministically
	Trials    int           // fault plans per target (default 3)
	MaxFaults int           // faults per plan (default 3)
	Targets   []Target      // workloads to sweep
	Budget    time.Duration // stop starting new targets after this long (0: none)
	// Jobs shards targets across the sweep orchestrator (0 or 1:
	// sequential). Targets are independent — each owns its program, golden
	// state and machines — and aggregation folds per-target outcomes in
	// target order, so the campaign result is the same at any job count.
	Jobs int
	Log  func(format string, args ...any)
}

// Failure is one reproducible campaign failure: the original failing plan
// and its shrunk minimal form, both replayable via `capricrash -plan`.
type Failure struct {
	Plan       Plan
	Shrunk     Plan
	Err        string
	ShrinkRuns int
}

// CampaignResult aggregates a campaign.
type CampaignResult struct {
	Targets       int
	Trials        int
	Faults        int // faults injected across all plans
	Crashes       int
	Vacuous       int
	Exhausted     int
	NestedCrashes int
	Recoveries    int
	DrainRetries  uint64
	EventsAudited uint64
	Failures      []Failure
}

// planSeed derives the deterministic per-trial plan seed, so any trial is
// reproducible from (base seed, target index, trial index) alone — and the
// plan JSON records the derived seed.
func planSeed(base, target, trial uint64) uint64 {
	r := rng{s: base ^ (target+1)*0x9e3779b97f4a7c15}
	r.next()
	return r.next() + trial*0x2545f4914f6cdd1d
}

// runTarget executes one target's full trial schedule: build once, capture
// the golden state once, then Trials independent plans. The first failing
// trial is shrunk to a minimal failing plan and recorded; remaining trials
// of that target are skipped (one minimal reproducer per target is the
// useful artifact). The outcome is the target's one-target CampaignResult.
func runTarget(cc CampaignConfig, ti int, target Target, logf func(string, ...any)) (CampaignResult, error) {
	to := CampaignResult{Targets: 1}
	pg, cfg, err := target.Build()
	if err != nil {
		return to, err
	}
	g, err := recovery.RunGolden(pg, cfg)
	if err != nil {
		return to, fmt.Errorf("%s: golden: %w", target.Name(), err)
	}
	for trial := 0; trial < cc.Trials; trial++ {
		seed := planSeed(cc.Seed, uint64(ti), uint64(trial))
		plan := GeneratePlan(seed, target, g.Instret, cc.MaxFaults, pg.NumThreads())
		outc := RunPlan(pg, cfg, g, plan)
		to.Trials++
		to.Faults += len(plan.Faults)
		to.Recoveries += outc.Recoveries
		to.NestedCrashes += outc.NestedCrashes
		to.DrainRetries += outc.DrainRetries
		to.EventsAudited += outc.EventsAudited
		if outc.Crashed {
			to.Crashes++
		}
		if outc.Vacuous {
			to.Vacuous++
		}
		if outc.Exhausted {
			to.Exhausted++
		}
		if outc.Err == nil {
			continue
		}
		logf("%s: trial %d FAILED: %v — shrinking", target.Name(), trial, outc.Err)
		shrunk, runs := Shrink(pg, cfg, g, plan)
		to.Failures = append(to.Failures, Failure{
			Plan:       plan,
			Shrunk:     shrunk,
			Err:        outc.Err.Error(),
			ShrinkRuns: runs,
		})
		logf("%s: minimal plan (%d shrink runs): %s", target.Name(), runs, shrunk.Summary())
		break
	}
	return to, nil
}

// RunCampaign sweeps seeded fault plans over the targets, sharding targets
// across cc.Jobs workers (see CampaignConfig.Jobs). Per-target outcomes fold
// into the result in target order, so counters and the Failures list are
// identical at any job count. Build or golden-run errors fail the campaign
// (they mean the target itself is broken, not the fault response); the
// aggregated result of the remaining targets is still returned alongside
// the lowest-indexed error.
func RunCampaign(cc CampaignConfig) (*CampaignResult, error) {
	if cc.Trials <= 0 {
		cc.Trials = 3
	}
	if cc.MaxFaults <= 0 {
		cc.MaxFaults = 3
	}
	logf := cc.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var deadline time.Time
	if cc.Budget > 0 {
		deadline = time.Now().Add(cc.Budget)
	}
	outs := make([]CampaignResult, len(cc.Targets))
	err := sweep.Run(cc.Jobs, len(cc.Targets), func(ti int) error {
		if !deadline.IsZero() && time.Now().After(deadline) {
			return nil // budget-skipped: outs[ti].Targets stays 0
		}
		to, terr := runTarget(cc, ti, cc.Targets[ti], logf)
		if terr != nil {
			return terr
		}
		outs[ti] = to
		return nil
	})
	res := &CampaignResult{}
	skipped := 0
	for _, to := range outs {
		if to.Targets == 0 {
			skipped++
			continue
		}
		res.Targets += to.Targets
		res.Trials += to.Trials
		res.Faults += to.Faults
		res.Crashes += to.Crashes
		res.Vacuous += to.Vacuous
		res.Exhausted += to.Exhausted
		res.NestedCrashes += to.NestedCrashes
		res.Recoveries += to.Recoveries
		res.DrainRetries += to.DrainRetries
		res.EventsAudited += to.EventsAudited
		res.Failures = append(res.Failures, to.Failures...)
	}
	if skipped > 0 {
		logf("budget exhausted: %d/%d targets skipped", skipped, len(cc.Targets))
	}
	return res, err
}

// ReplayPlan builds the plan's target, captures its golden state, and
// executes the plan — the one-call reproduction path behind
// `capricrash -plan failure.json`.
func ReplayPlan(plan Plan) (recovery.Outcome, error) {
	pg, cfg, err := plan.Target.Build()
	if err != nil {
		return recovery.Outcome{}, err
	}
	g, err := recovery.RunGolden(pg, cfg)
	if err != nil {
		return recovery.Outcome{}, fmt.Errorf("%s: golden: %w", plan.Target.Name(), err)
	}
	return RunPlan(pg, cfg, g, plan), nil
}

// shrinkRunCap bounds the executor runs one shrink spends; RunPlan is
// deterministic, so the cap only limits effort, never correctness.
const shrinkRunCap = 200

// Shrink minimizes a failing plan: greedy one-fault removal to a fixpoint,
// interleaved with per-fault parameter shrinking (halving Pick/Keep/Step,
// collapsing Fails to 1), accepting every candidate that still fails. The
// executor is deterministic, so the result is a stable minimal failing plan;
// a plan that does not reproduce its failure is returned unchanged.
func Shrink(pg *prog.Program, cfg machine.Config, g *recovery.Golden, plan Plan) (Plan, int) {
	runs := 0
	fails := func(p Plan) bool {
		runs++
		return RunPlan(pg, cfg, g, p).Err != nil
	}
	if !fails(plan) {
		return plan, runs
	}
	cur := plan
	for changed := true; changed && runs < shrinkRunCap; {
		changed = false
		// Drop faults one at a time.
		for i := 0; i < len(cur.Faults) && runs < shrinkRunCap; i++ {
			cand := cur
			cand.Faults = append(append([]Fault{}, cur.Faults[:i]...), cur.Faults[i+1:]...)
			if fails(cand) {
				cur = cand
				changed = true
				i--
			}
		}
		// Shrink each surviving fault's parameters.
		for i := 0; i < len(cur.Faults) && runs < shrinkRunCap; i++ {
			for _, small := range shrinkFault(cur.Faults[i]) {
				cand := cur
				cand.Faults = append([]Fault{}, cur.Faults...)
				cand.Faults[i] = small
				if fails(cand) {
					cur = cand
					changed = true
					break
				}
			}
		}
	}
	return cur, runs
}

// shrinkFault proposes strictly smaller variants of one fault, most
// aggressive first.
func shrinkFault(f Fault) []Fault {
	var out []Fault
	add := func(g Fault) {
		if g != f {
			out = append(out, g)
		}
	}
	g := f
	g.Pick, g.Keep = 0, 0
	if g.Kind == KindRecoveryCrash {
		g.Step = 1
	}
	if g.Fails > 1 {
		g.Fails = 1
	}
	add(g)
	g = f
	g.Pick /= 2
	add(g)
	g = f
	g.Keep /= 2
	add(g)
	g = f
	if g.Step > 1 {
		g.Step /= 2
		add(g)
	}
	g = f
	if g.Fails > 1 {
		g.Fails = 1
		add(g)
	}
	return out
}
