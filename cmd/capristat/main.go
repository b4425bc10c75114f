// Command capristat compares two result sets of the repository benchmark
// (bench/, DESIGN.md §4j). A result set is a file of the JSON lines
// `bash bench/run.sh ... --out FILE` writes, one per run, or a directory of
// such files. For every workload in both sets and every end-to-end metric of
// ./BENCHMARK.json it prints each side's median ± MAD, the change of the
// median in the metric's better direction (positive = better), the
// Mann-Whitney U p-value and a verdict. A metric regresses only when the
// change is significant (p < stats.CompareAlpha) and a slowdown beyond the
// metric's bound; with fewer than stats.CompareMinSamples runs a side it is
// "too few runs". Run it from the repository root:
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
// change must exceed to count.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// measured is one metric's value in a result line.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is the part of one bench result line capristat reads.
type run struct {
	Workload string              `json:"workload"`
	Metrics  map[string]measured `json:"metrics"`
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

// compare judges every end-to-end metric of every workload present in both
// sets, workloads in name order. A metric missing from a run, or measured
// in two units, is an error; so is a pair of sets with nothing to judge.
func compare(sp *spec, ga, gb map[string][]run) ([]row, error) {
	var names []string
	for w := range ga {
		if len(gb[w]) > 0 {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	var rows []row
	for _, w := range names {
		for _, m := range sp.EndToEnd {
			var vals [2][]float64
			unit := ga[w][0].Metrics[m.Name].Unit
			for i, rs := range [2][]run{ga[w], gb[w]} {
				for _, r := range rs {
					if v, ok := r.Metrics[m.Name]; !ok || v.Unit != unit {
						return nil, fmt.Errorf("%s: a run in set %c has no %s in unit %q", w, 'A'+i, m.Name, unit)
					}
					vals[i] = append(vals[i], r.Metrics[m.Name].Value)
				}
			}
			r := row{workload: w, metric: m.Name, c: stats.CompareRates(vals[0], vals[1]), nA: len(vals[0]), nB: len(vals[1])}
			r.gain = r.c.Delta
			if m.Better != "higher" && r.gain != 0 {
				r.gain = -r.gain
			}
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
	fmt.Fprintf(w, "%-16s %-16s %23s %23s %8s %6s  %s\n", "workload", "metric", "A median ± MAD", "B median ± MAD", "gain", "p", "verdict")
	failed := 0
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-16s %12.5g ±%10.3g %12.5g ±%10.3g %+7.2f%% %6.3f  %s (n=%d vs %d)\n",
			r.workload, r.metric, r.c.OldMedian, r.c.OldMAD, r.c.NewMedian, r.c.NewMAD,
			100*r.gain, r.c.P, r.verdict, r.nA, r.nB)
		if r.fails {
			failed++
		}
	}
	if failed > 0 && gate {
		return fmt.Errorf("capristat: %d of %d rows regressed beyond their bound (p < %.2g) or had fewer than %d runs a side",
			failed, len(rows), stats.CompareAlpha, stats.CompareMinSamples)
	}
	return nil
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
