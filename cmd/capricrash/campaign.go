package main

import (
	"fmt"
	"os"
	"time"

	"capri/internal/fault"
	"capri/internal/resultstore"
)

// runCampaign is `capricrash -campaign`: a seeded hardware-fault campaign
// (DESIGN.md §4f) over the synthetic fault workloads, a slice of the progen
// corpus, and — with -benches — every paper benchmark. Torn NVM line writes,
// nested crashes during recovery, and transient drain write errors are
// injected per seeded plan; every run is observed by the online Fig. 7
// auditor and verified against its golden state. Any failure is shrunk to a
// minimal reproducible fault plan and written as JSON for `-plan` replay.
func runCampaign(seed uint64, trials, maxFaults, corpus, threshold, scale, jobs int,
	benches bool, cores []int, duration time.Duration, planOut, recordOut, storeDir string) {
	targets := append(fault.SynthTargets(threshold), fault.CorpusTargets(corpus, threshold)...)
	if benches {
		targets = append(targets, fault.BenchTargets(scale, threshold)...)
	}
	if len(cores) > 0 {
		// -cores 2,4,8: the cross-core contention workloads at each geometry,
		// each target pinned to its own core count (Plan.Target.Cores), so a
		// shrunk failing plan replays on the exact machine that produced it.
		targets = append(targets, fault.ContentionTargets(scale, threshold, cores...)...)
	}
	var store *resultstore.Store
	if storeDir != "" {
		s, err := resultstore.Open(storeDir)
		if err != nil {
			fatal(err)
		}
		store = s
		defer store.Close()
	}
	fmt.Printf("fault campaign: %d targets, %d trials each, <= %d faults/plan, seed %d, %d job(s)\n",
		len(targets), trials, maxFaults, seed, max(jobs, 1))
	start := time.Now()
	res, err := fault.RunCampaign(fault.CampaignConfig{
		Seed:      seed,
		Trials:    trials,
		MaxFaults: maxFaults,
		Targets:   targets,
		Budget:    duration,
		Jobs:      jobs,
		Store:     store,
		Log: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\n%d targets, %d trials, %d faults injected in %v\n",
		res.Targets, res.Trials, res.Faults, time.Since(start).Round(time.Millisecond))
	if store != nil {
		fmt.Printf("result store: %d target outcomes replayed, %d freshly executed\n",
			res.StoreHits, res.Targets-res.StoreHits)
	}
	fmt.Printf("crashes %d (vacuous %d, exhausted %d), recoveries %d, nested crashes %d\n",
		res.Crashes, res.Vacuous, res.Exhausted, res.Recoveries, res.NestedCrashes)
	fmt.Printf("drain retries %d, auditor events %d\n", res.DrainRetries, res.EventsAudited)
	if len(res.Failures) == 0 {
		fmt.Println("all plans recovered to the golden state — no violations")
		return
	}
	for i, f := range res.Failures {
		fmt.Printf("\nFAILURE %d: %s\n", i+1, f.Err)
		fmt.Printf("  plan:   %s\n", f.Plan.Summary())
		fmt.Printf("  shrunk: %s (%d shrink runs)\n", f.Shrunk.Summary(), f.ShrinkRuns)
	}
	// The first failure's minimal plan is the artifact: replay it with
	// `capricrash -plan <file>`.
	first := res.Failures[0]
	if planOut == "" {
		planOut = "fault-plan-min.json"
	}
	if err := first.Shrunk.WriteFile(planOut); err != nil {
		fatal(err)
	}
	if planOut != "-" {
		fmt.Printf("\nminimal failing plan -> %s\n", planOut)
	}
	if recordOut != "" {
		outc, err := fault.ReplayPlan(first.Shrunk)
		if err != nil {
			fatal(err)
		}
		writeRecord(recordOut, first.Shrunk.Target.Name(), outc, &first.Shrunk)
	}
	os.Exit(1)
}

// runPlanReplay is `capricrash -plan failure.json`: replay one fault plan
// exactly and report whether it still violates.
func runPlanReplay(path, recordOut string) {
	plan, err := fault.ReadPlan(path)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("replaying plan: %s\n", plan.Summary())
	outc, err := fault.ReplayPlan(plan)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("crashed=%v vacuous=%v exhausted=%v recoveries=%d nested=%d retries=%d events=%d\n",
		outc.Crashed, outc.Vacuous, outc.Exhausted, outc.Recoveries,
		outc.NestedCrashes, outc.DrainRetries, outc.EventsAudited)
	if recordOut != "" {
		writeRecord(recordOut, plan.Target.Name(), outc, &plan)
	}
	if outc.Err != nil {
		fmt.Printf("FAIL: %v\n", outc.Err)
		os.Exit(1)
	}
	fmt.Println("OK: recovered to the golden state, audit clean")
}
