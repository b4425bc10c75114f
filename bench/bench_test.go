package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"capri/internal/fault"
)

const specFile = "../BENCHMARK.json"

// invoke runs the command in-process with the smoke settings plus extra
// flags, and returns its -out result and standard output.
func invoke(t *testing.T, name string, extra ...string) (*result, string) {
	t.Helper()
	outFile := filepath.Join(t.TempDir(), "result.json")
	args := append([]string{"-workload", name, "-small", "-rounds", "1", "-spec", specFile, "-out", outFile}, extra...)
	var stdout bytes.Buffer
	if err := mainErr(args, &stdout); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	rs, err := readResultFile(outFile)
	if err != nil || len(rs) != 1 {
		t.Fatalf("reading %s: %v (%d results)", outFile, err, len(rs))
	}
	return rs[0], stdout.String()
}

// deterministic reports whether a metric is fixed by the simulated inputs,
// so two invocations must agree on it exactly.
func deterministic(m specMetric) bool {
	switch m.Unit {
	case "s", "ms", "ns", "ns/inst", "Minst/s", "MB":
		return false
	}
	return !strings.HasPrefix(m.Name, "go.") && !strings.HasPrefix(m.Name, "bench.") &&
		!strings.HasSuffix(m.Name, ".self_pct") && m.Name != "mallocs_per_op"
}

// TestSmoke runs every workload at minimal size for one round, untraced and
// then traced. Both invocations must fail no op, emit only declared metric
// names, agree exactly on every simulated metric and digest, and the traced
// one must write a parseable Chrome trace; across workloads the traces must
// hold a span for every layer.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	spans := map[string]bool{}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain, stdout := invoke(t, w.name)
			tracePath := filepath.Join(t.TempDir(), "trace.json")
			traced, tracedOut := invoke(t, w.name, "-trace", "1", "-trace-out", tracePath)

			for _, res := range []*result{plain, traced} {
				if res.Failed != 0 || res.Metrics["fail_ratio"].Value != 0 {
					t.Errorf("failed ops: %v", res.Failures)
				}
			}
			for _, out := range []string{stdout, tracedOut} {
				checkEmittedNames(t, spec, w.name, out)
			}
			if plain.SimDigest != traced.SimDigest || plain.CompileDigest != traced.CompileDigest {
				t.Errorf("digests differ between invocations: %+v vs %+v", plain, traced)
			}
			for _, list := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
				for _, m := range list {
					a, aok := plain.Metrics[m.Name]
					b, bok := traced.Metrics[m.Name]
					if deterministic(m) && aok && bok && a != b {
						t.Errorf("%s: %v then %v", m.Name, a.Value, b.Value)
					}
				}
			}
			if u := traced.Metrics["bench.unattributed_pct"].Value; u >= 10 {
				t.Errorf("bench.unattributed_pct = %.1f%%, want < 10%%", u)
			}

			raw, err := os.ReadFile(tracePath)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []traceEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatalf("trace does not parse: %v", err)
			}
			ops := 0
			for _, e := range doc.TraceEvents {
				if e.Cat == "op" {
					ops++
				} else {
					spans[e.Name] = true
				}
			}
			if ops != traced.Attempted/2 {
				t.Errorf("%d op spans, want %d (one per traced op)", ops, traced.Attempted/2)
			}
		})
	}
	for _, n := range append(layerNames[:], setupLayerNames[:]...) {
		if !spans[n] {
			t.Errorf("no %s span in any trace", n)
		}
	}
}

// checkEmittedNames checks every "workload name value unit" line and the
// summary line: names declared in BENCHMARK.json and well formed.
func checkEmittedNames(t *testing.T, spec *benchSpec, workload, out string) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var sum summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("last line is not the summary: %v", err)
	}
	names := []string{}
	for name := range sum.Metrics {
		names = append(names, name)
	}
	for _, l := range lines[:len(lines)-1] {
		if strings.HasPrefix(l, "#") {
			continue
		}
		f := strings.Fields(l)
		if len(f) != 4 || f[0] != workload {
			t.Errorf("malformed metric line %q", l)
			continue
		}
		if _, err := strconv.ParseFloat(f[2], 64); err != nil {
			t.Errorf("line %q: %v", l, err)
		}
		names = append(names, f[1])
	}
	for _, n := range names {
		if _, ok := spec.lookup(n); !ok || !metricName.MatchString(n) {
			t.Errorf("emitted metric %q is not a declared, well-formed name", n)
		}
	}
}

// TestKnownHangIsABoundedFailure pins the known contention-recovery hang
// (README.md): resuming mt-queue-c4 after a crash at instruction 120 never
// finishes, and the step budget turns that into a failed op within seconds.
// When recovery is fixed this test fails; then drop the knownHangs window.
func TestKnownHangIsABoundedFailure(t *testing.T) {
	ct, err := newCrashTarget(fault.Target{Bench: "mt-queue-c4", Threshold: 64, Cores: 4}, &setupRec{})
	if err != nil {
		t.Fatal(err)
	}
	ca := &crashAudit{targets: []crashTarget{ct}}
	start := time.Now()
	_, err = ca.point(&round{}, crashPoint{target: 0, at: 120})
	if err == nil || !strings.Contains(err.Error(), "step budget exhausted") {
		t.Fatalf("crash at 120: err = %v, want a step-budget failure", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("bounded failure took %v", d)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	bound := 0.10
	lower := specMetric{Better: "lower", Bound: &bound}
	higher := specMetric{Better: "higher", Bound: &bound}
	for _, c := range []struct {
		m    specMetric
		a, b []float64
		want string
	}{
		{lower, []float64{100, 101, 102}, []float64{101, 102, 103}, "within bound"},
		{lower, []float64{100, 101, 102}, []float64{120, 121, 122}, "worse"},
		{lower, []float64{100, 101, 102}, []float64{80, 81, 82}, "better"},
		{higher, []float64{100, 101, 102}, []float64{80, 81, 82}, "worse"},
		{lower, []float64{50, 100, 150}, []float64{101, 102, 103}, "unresolved"},
		{lower, []float64{150, 200, 250}, []float64{50, 100, 140}, "better"},
	} {
		if got := verdict(c.m, c.a, c.b, quartiles(c.a), quartiles(c.b)); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.m.Better, c.a, c.b, got, c.want)
		}
	}
}
