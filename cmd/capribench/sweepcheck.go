package main

import (
	"fmt"
	"os"
	"strings"

	"capri/internal/figures"
)

// sweepBlockName is the marker name of the sweep-accounting block embedded
// in EXPERIMENTS.md. It reuses the explain-block marker syntax so `make
// docs-verify` byte-checks it with the same extractor.
const sweepBlockName = "sweep-accounting"

// sweepTables is one harness's rendered Fig8+Fig9 output plus the counters
// the determinism contract compares.
type sweepTables struct {
	fig8, fig9 string
	instret    uint64
	simRuns    uint64
}

// renderSweep runs the full Fig8 threshold sweep and the Fig9 level sweep on
// one harness and snapshots the counters.
func renderSweep(scale, jobs int) (sweepTables, error) {
	var out sweepTables
	h := figures.NewHarness(scale)
	h.Parallelism = jobs
	t8, err := h.Fig8(nil)
	if err != nil {
		return out, err
	}
	t9, err := h.Fig9()
	if err != nil {
		return out, err
	}
	out.fig8, out.fig9 = t8.String(), t9.String()
	out.instret = h.Instret()
	out.simRuns = h.SimRuns()
	return out, nil
}

// runSweepCheck asserts the sweep orchestrator's determinism contract
// (DESIGN.md §4h) end-to-end: a sequential reference sweep and a jobs-worker
// parallel sweep on fresh harnesses must render byte-identical fig8/fig9
// tables and do the same work — simulations and instructions are
// counter-asserted, not assumed. Every Capri simulation compiles once, so
// equal simulation counts mean equal compilation counts.
//
// With verifyPath set it additionally byte-checks the accounting block
// embedded in that file (the docs-verify half of the contract); otherwise it
// prints the block for pasting into EXPERIMENTS.md.
func runSweepCheck(scale, jobs int, verifyPath string) error {
	if jobs < 2 {
		jobs = 4 // the contract is about parallelism; a 1-job check is vacuous
	}
	seq, err := renderSweep(scale, 1)
	if err != nil {
		return fmt.Errorf("sweepcheck sequential: %w", err)
	}
	par, err := renderSweep(scale, jobs)
	if err != nil {
		return fmt.Errorf("sweepcheck parallel: %w", err)
	}
	if par.fig8 != seq.fig8 || par.fig9 != seq.fig9 {
		return fmt.Errorf("sweepcheck: parallel (-jobs %d) tables differ from sequential:\n--- sequential fig8 ---\n%s--- parallel fig8 ---\n%s--- sequential fig9 ---\n%s--- parallel fig9 ---\n%s",
			jobs, seq.fig8, par.fig8, seq.fig9, par.fig9)
	}
	if par.instret != seq.instret || par.simRuns != seq.simRuns {
		return fmt.Errorf("sweepcheck: parallel run simulated different work: %d inst / %d sims vs sequential %d / %d",
			par.instret, par.simRuns, seq.instret, seq.simRuns)
	}

	block := renderSweepBlock(seq, par)
	fmt.Printf("sweepcheck: -jobs %d tables byte-identical to sequential; %d sims in both\n",
		jobs, seq.simRuns)
	if verifyPath == "" {
		fmt.Printf("\n<!-- explain:%s -->\n%s<!-- /explain:%s -->\n", sweepBlockName, block, sweepBlockName)
		return nil
	}
	data, err := os.ReadFile(verifyPath)
	if err != nil {
		return err
	}
	want, err := extractBlock(string(data), sweepBlockName)
	if err != nil {
		return fmt.Errorf("%s: %w", verifyPath, err)
	}
	if want != block {
		return fmt.Errorf("docs-verify: sweep block %q is stale in %s (run `capribench -sweepcheck` and update)\n--- documented:\n%s--- measured:\n%s",
			sweepBlockName, verifyPath, want, block)
	}
	fmt.Printf("docs-verify: sweep block %q in %s matches the simulator\n", sweepBlockName, verifyPath)
	return nil
}

// renderSweepBlock builds the deterministic accounting block embedded in
// EXPERIMENTS.md: pure counters — simulations and instructions — never
// wall times, so the block is byte-stable across machines and job
// counts.
func renderSweepBlock(seq, par sweepTables) string {
	var b strings.Builder
	b.WriteString("```text\n")
	fmt.Fprintf(&b, "fig8+fig9 sweep accounting (scale 1; counters, not clocks)\n")
	fmt.Fprintf(&b, "  simulations (cold)      %6d  (baselines + fig8 cells + fig9 cells)\n", seq.simRuns)
	fmt.Fprintf(&b, "  instructions simulated  %6d k\n", seq.instret/1000)
	fmt.Fprintf(&b, "  parallel == sequential  fig8, fig9 byte-identical; instret delta %d\n",
		par.instret-seq.instret)
	b.WriteString("```\n")
	return b.String()
}
