// Command capristat compares two result sets of the repository benchmark
// (bench/, DESIGN.md §4j). A result set is a file of the JSON lines
// `bash bench/run.sh ... --out FILE` writes, one per run, or a directory of
// such files. For every workload in both sets and every end-to-end metric of
// ./BENCHMARK.json it prints each side's median ± MAD, the change of the
// median in the metric's better direction (positive = better), the
// Mann-Whitney U p-value and a verdict. A metric regresses only when the
// change is significant (p < stats.CompareAlpha) and a slowdown beyond the
// metric's bound; with fewer than stats.CompareMinSamples runs a side it is
// "too few runs". Below that table it lists, for information only, every
// per-layer metric of BENCHMARK.json that both sets carry and whose medians
// differ significantly; those rows never gate. Where every run of a
// workload on both sides carries the same sim_digest, the simulated outputs
// are identical, and a per-layer metric computed only from simulated
// counters can differ only because the sides timed different numbers of
// rounds: those metrics are left out and one line says why. Run it from the
// repository root:
//
//	capristat A B          # print the comparison table
//	capristat -gate A B    # also exit non-zero on a regression or too few runs
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"capri/internal/stats"
)

// spec is the part of BENCHMARK.json capristat reads: the end-to-end
// metrics, each with the direction that is better and the relative bound a
// change must exceed to count, and the per-layer metrics with their better
// direction.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// measured is one metric's value in a result line.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is the part of one bench result line capristat reads.
type run struct {
	Workload  string              `json:"workload"`
	SimDigest string              `json:"sim_digest"`
	Metrics   map[string]measured `json:"metrics"`
}

// loadSpec reads the metric declarations.
func loadSpec(path string) (*spec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadSet reads a result set, a file of JSON result lines or a directory
// whose files each hold such lines, and groups its runs by workload. Blank
// lines are skipped; a line that is not a result, or a set with no result
// at all, is an error.
func loadSet(path string) (map[string][]run, error) {
	files := []string{path}
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if st.IsDir() {
		entries, err := os.ReadDir(path)
		if err != nil {
			return nil, err
		}
		files = files[:0]
		for _, e := range entries {
			if !e.IsDir() {
				files = append(files, filepath.Join(path, e.Name()))
			}
		}
	}
	out := map[string][]run{}
	for _, name := range files {
		buf, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(buf), "\n") {
			if strings.TrimSpace(line) == "" {
				continue
			}
			var r run
			if err := json.Unmarshal([]byte(line), &r); err != nil || r.Workload == "" {
				return nil, fmt.Errorf("%s:%d: not a bench result line", name, i+1)
			}
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return out, nil
}

// row is one workload × metric comparison.
type row struct {
	workload, metric string
	c                stats.Comparison
	nA, nB           int
	gain             float64 // change of the median in the better direction: + is better
	verdict          string
	fails            bool
}

// common returns the workloads present in both sets, in name order.
func common(ga, gb map[string][]run) []string {
	var names []string
	for w := range ga {
		if len(gb[w]) > 0 {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	return names
}

// samples returns metric name's values in every run of both sides, or an
// error naming the side of a run that lacks it or carries it in another unit
// than the first run.
func samples(name string, sides [2][]run) (vals [2][]float64, err error) {
	unit := sides[0][0].Metrics[name].Unit
	for i, rs := range sides {
		for _, r := range rs {
			v, ok := r.Metrics[name]
			if !ok || v.Unit != unit {
				return vals, fmt.Errorf("a run in set %c has no %s in unit %q", 'A'+i, name, unit)
			}
			vals[i] = append(vals[i], v.Value)
		}
	}
	return vals, nil
}

// comparison compares two sample sets and signs the change of the median
// so that positive is better.
func comparison(w, metric, better string, vals [2][]float64) row {
	r := row{workload: w, metric: metric, c: stats.CompareRates(vals[0], vals[1]), nA: len(vals[0]), nB: len(vals[1])}
	r.gain = r.c.Delta
	if better != "higher" && r.gain != 0 {
		r.gain = -r.gain
	}
	return r
}

// compare judges every end-to-end metric of every workload present in both
// sets, workloads in name order. A metric missing from a run, or measured
// in two units, is an error; so is a pair of sets with nothing to judge.
func compare(sp *spec, ga, gb map[string][]run) ([]row, error) {
	var rows []row
	for _, w := range common(ga, gb) {
		for _, m := range sp.EndToEnd {
			vals, err := samples(m.Name, [2][]run{ga[w], gb[w]})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w, err)
			}
			r := comparison(w, m.Name, m.Better, vals)
			switch {
			case r.c.TooFew:
				r.verdict, r.fails = "too few runs", true
			case r.c.Significant && -r.gain > m.Bound:
				r.verdict, r.fails = "REGRESSED", true
			case r.c.Significant && r.gain > m.Bound:
				r.verdict = "improved"
			case r.c.Significant:
				r.verdict = "within bound"
			default:
				r.verdict = "~"
			}
			rows = append(rows, r)
		}
	}
	if len(rows) == 0 {
		return nil, errors.New("no workload and end-to-end metric present in both sets")
	}
	return rows, nil
}

// simulated reports whether per-layer metric name is computed only from
// simulated counters (bench/metrics.go: the machine's Stats, its recovery
// report and the auditors' event and violation counts), so that runs with
// the same simulated outputs differ in it only through which rounds they
// timed. Host-side metrics (timings, call counts, the Go runtime's, and the
// step and run-queue counts, which depend on how the host schedules the
// simulation) are not.
func simulated(name string) bool {
	switch name {
	case "machine.instret", "machine.cycles_per_kinst", "machine.stall_cycles_per_kinst",
		"machine.recover.regions_redone", "machine.recover.entries_redone",
		"machine.recover.entries_undone", "machine.recover.slices_executed",
		"audit.events_per_op", "audit.violations", "capri_overhead_pct":
		return true
	}
	for _, family := range []string{"machine.cycles.", "machine.decode.", "cache.", "mem.", "proxy."} {
		if strings.HasPrefix(name, family) {
			return true
		}
	}
	return false
}

// sameSimulation reports whether every run of both sides carries one
// non-empty sim_digest (a workload that simulates nothing carries none).
func sameSimulation(sides [2][]run) bool {
	d := sides[0][0].SimDigest
	for _, rs := range sides {
		for _, r := range rs {
			if r.SimDigest != d {
				return false
			}
		}
	}
	return d != ""
}

// moved returns a row for every per-layer metric of every workload present
// in both sets whose medians differ at p < stats.CompareAlpha, and the
// workloads whose runs all carry one sim_digest, for which it skips the
// simulated metrics. A metric some run lacks, or carries in another unit,
// is skipped too: these rows inform and never judge.
func moved(sp *spec, ga, gb map[string][]run) (rows []row, identical []string) {
	for _, w := range common(ga, gb) {
		sides := [2][]run{ga[w], gb[w]}
		same := sameSimulation(sides)
		if same {
			identical = append(identical, w)
		}
		for _, m := range sp.PerLayer {
			if same && simulated(m.Name) {
				continue
			}
			if vals, err := samples(m.Name, sides); err == nil {
				if r := comparison(w, m.Name, m.Better, vals); r.c.Significant {
					rows = append(rows, r)
				}
			}
		}
	}
	return rows, identical
}

// judge compares result sets A and B, prints the table to w and, with gate,
// returns an error when any row regressed or had too few runs.
func judge(sp *spec, pathA, pathB string, gate bool, w io.Writer) error {
	a, err := loadSet(pathA)
	if err != nil {
		return err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return err
	}
	rows, err := compare(sp, a, b)
	if err != nil {
		return err
	}
	table(w, rows, "metric")
	failed := 0
	for _, r := range rows {
		if r.fails {
			failed++
		}
	}
	layers, identical := moved(sp, a, b)
	if len(layers) > 0 {
		fmt.Fprintf(w, "\nper-layer metrics that moved (p < %.2g; informational, never gated):\n", stats.CompareAlpha)
		for i := range layers {
			layers[i].verdict = "moved"
		}
		table(w, layers, "per-layer metric")
	}
	for _, wl := range identical {
		fmt.Fprintf(w, "\n%s: the simulated outputs are identical (every run carries sim_digest %.12s…); per-layer metrics computed only from simulated counters are not listed\n",
			wl, a[wl][0].SimDigest)
	}
	if failed > 0 && gate {
		return fmt.Errorf("capristat: %d of %d rows regressed beyond their bound (p < %.2g) or had fewer than %d runs a side",
			failed, len(rows), stats.CompareAlpha, stats.CompareMinSamples)
	}
	return nil
}

// table writes rows under a header naming their metric column, at least 16
// wide and as wide as its longest name.
func table(w io.Writer, rows []row, metric string) {
	width := max(16, len(metric))
	for _, r := range rows {
		width = max(width, len(r.metric))
	}
	fmt.Fprintf(w, "%-16s %-*s %23s %23s %8s %6s  %s\n", "workload", width, metric, "A median ± MAD", "B median ± MAD", "gain", "p", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-*s %12.5g ±%10.3g %12.5g ±%10.3g %+7.2f%% %6.3f  %s (n=%d vs %d)\n",
			r.workload, width, r.metric, r.c.OldMedian, r.c.OldMAD, r.c.NewMedian, r.c.NewMAD,
			100*r.gain, r.c.P, r.verdict, r.nA, r.nB)
	}
}

func main() {
	gate := flag.Bool("gate", false, "exit non-zero when a metric regresses significantly beyond its BENCHMARK.json bound, or has too few runs to judge")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: capristat [-gate] A B   (A, B: bench -out result files or directories; reads ./BENCHMARK.json)\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err == nil {
		err = judge(sp, flag.Arg(0), flag.Arg(1), *gate, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
