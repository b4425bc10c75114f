package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// loadResults reads a result set: a file of -out JSON lines, or a directory
// whose files each hold such lines.
func loadResults(path string) ([]*result, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
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
	var out []*result
	for _, f := range files {
		rs, err := readResultFile(f)
		if err != nil {
			return nil, err
		}
		out = append(out, rs...)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return out, nil
}

func readResultFile(path string) ([]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil || r.Workload == "" {
			return nil, fmt.Errorf("%s:%d: not a bench result line", path, line)
		}
		out = append(out, &r)
	}
	return out, sc.Err()
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) computes them (the "exclusive"
// method).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		j = max(1, min(n-1, j))
		delta := i*(n+1) - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// verdict judges B against A for an end-to-end metric: "unresolved" when
// either side's quartile spread exceeds the bound (unless every B run beats
// every A run), else "worse", "better" or "within bound" by the change of
// the median.
func verdict(m specMetric, a, b []float64, qa, qb [3]float64) string {
	bound := *m.Bound
	spread := math.Max(ratio(qa[2]-qa[0], math.Abs(qa[1])), ratio(qb[2]-qb[0], math.Abs(qb[1])))
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	worse := sign * ratio(qb[1]-qa[1], math.Abs(qa[1]))
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case spread > bound && !allBetter:
		return "unresolved"
	case worse > bound:
		return "worse"
	case worse < -bound:
		return "better"
	}
	return "within bound"
}

// compareSets prints, per workload and metric, each set's median and
// quartiles and, for end-to-end metrics, the verdict against the bound
// BENCHMARK.json fixes. It flags digests that differ between the sets for
// the same workload, seed and shapes. It fails when a metric got worse or a
// digest changed.
func compareSets(spec *benchSpec, pathA, pathB string, w io.Writer) error {
	setA, err := loadResults(pathA)
	if err != nil {
		return err
	}
	setB, err := loadResults(pathB)
	if err != nil {
		return err
	}
	byWorkload := func(rs []*result) map[string][]*result {
		m := map[string][]*result{}
		for _, r := range rs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	ga, gb := byWorkload(setA), byWorkload(setB)
	worse, changed := 0, 0
	for _, wd := range workloads {
		as, bs := ga[wd.name], gb[wd.name]
		if len(as) == 0 || len(bs) == 0 {
			continue
		}
		fmt.Fprintf(w, "== %s: A %d runs, B %d runs; failed ops A %d, B %d\n", wd.name, len(as), len(bs), failedOps(as), failedOps(bs))
		for _, list := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
			for _, m := range list {
				va, vb := values(as, m.Name), values(bs, m.Name)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				qa, qb := quartiles(va), quartiles(vb)
				v := ""
				if m.Bound != nil {
					v = fmt.Sprintf("bound %g: %s", *m.Bound, verdict(m, va, vb, qa, qb))
					if strings.HasSuffix(v, "worse") {
						worse++
					}
				}
				fmt.Fprintf(w, "%-40s A %-10.5g [%.5g, %.5g]  B %-10.5g [%.5g, %.5g]  %+7.2f%%  %s\n",
					m.Name, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2], 100*ratio(qb[1]-qa[1], math.Abs(qa[1])), v)
			}
		}
		changed += compareDigests(w, as, bs)
	}
	if worse > 0 || changed > 0 {
		return fmt.Errorf("%d metrics worse, %d digests changed", worse, changed)
	}
	return nil
}

func failedOps(rs []*result) int {
	n := 0
	for _, r := range rs {
		n += r.Failed
	}
	return n
}

func values(rs []*result, name string) []float64 {
	var vs []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			vs = append(vs, v.Value)
		}
	}
	return vs
}

// compareDigests reports every (seed, size, shapes) key whose digests are
// not one identical pair across and within the sets, and returns how many.
func compareDigests(w io.Writer, as, bs []*result) int {
	type key struct {
		seed   uint64
		small  bool
		shapes int
	}
	seen := map[key]map[string]bool{}
	for _, rs := range [][]*result{as, bs} {
		for _, r := range rs {
			k := key{r.Seed, r.Small, r.Shapes}
			if seen[k] == nil {
				seen[k] = map[string]bool{}
			}
			seen[k]["sim "+r.SimDigest] = true
			seen[k]["compile "+r.CompileDigest] = true
		}
	}
	n := 0
	for k, ds := range seen {
		if len(ds) > 2 {
			fmt.Fprintf(w, "DIGEST CHANGED seed %d shapes %d: %d distinct digests\n", k.seed, k.shapes, len(ds))
			n++
		}
	}
	return n
}
