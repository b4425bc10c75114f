// Package sweep is the parallel sweep orchestrator (DESIGN.md §4h): it
// shards independent simulation configurations — (benchmark × level ×
// threshold) grid cells for the figures, fault targets for the crash
// campaigns — across a bounded fleet of workers.
//
// The orchestrator adds no semantics of its own: every unit is an
// independent deterministic simulation, so the only contract worth having
// is that the parallel sweep is indistinguishable from the sequential one.
// Run guarantees it structurally (units never share mutable state; results
// land in per-unit slots; the reported error is the lowest-indexed one, not
// the first to lose a race), and `capribench -sweepcheck` asserts it
// end-to-end: fig8/fig9 tables from a `-jobs N` sweep are byte-identical to
// the sequential run's.
package sweep

import (
	"runtime"
	"sync"

	"capri/internal/compile"
	"capri/internal/workload"
)

// Run fans units 0..n-1 across a bounded worker fleet and waits for all of
// them. jobs bounds concurrency (jobs <= 1 runs strictly sequentially in
// index order; 0 means GOMAXPROCS); each worker executes one unit at a
// time, so a runner that builds a machine.Machine per unit holds at most
// one live machine per worker. Every unit runs even when another fails —
// units are independent simulations, and a sweep that stopped early would
// leave a schedule-dependent set of cells filled. The returned error is the
// failing unit with the lowest index, which keeps the outcome deterministic
// under any worker interleaving.
func Run(jobs, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > n {
		jobs = n
	}
	errs := make([]error, n)
	if jobs == 1 {
		for i := 0; i < n; i++ {
			errs[i] = fn(i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < jobs; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					errs[i] = fn(i)
				}
			}()
		}
		for i := 0; i < n; i++ {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Unit is one cell of a figure sweep: a benchmark compiled at a cumulative
// optimization level and store threshold.
type Unit struct {
	Bench     workload.Benchmark
	Level     compile.Level
	Threshold int
}

// Grid enumerates the (benchmark × level × threshold) sweep units
// benchmark-major, the same order the sequential figure loops visit them.
func Grid(benches []workload.Benchmark, levels []compile.Level, thresholds []int) []Unit {
	out := make([]Unit, 0, len(benches)*len(levels)*len(thresholds))
	for _, b := range benches {
		for _, l := range levels {
			for _, th := range thresholds {
				out = append(out, Unit{Bench: b, Level: l, Threshold: th})
			}
		}
	}
	return out
}

// RunUnits is Run over a unit grid.
func RunUnits(jobs int, units []Unit, fn func(Unit) error) error {
	return Run(jobs, len(units), func(i int) error { return fn(units[i]) })
}
