package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testdata/a and testdata/b are two independent five-run result sets of the
// same code, each run captured with
//
//	bash bench/run.sh --workload compile-matrix --small --rounds 2 --out testdata/a/runN.jsonl

func mustSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// mustSet loads a one-workload result set and returns its runs.
func mustSet(t *testing.T, path string) []run {
	t.Helper()
	set, err := loadSet(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 1 {
		t.Fatalf("%s: %d workloads, want 1", path, len(set))
	}
	for _, rs := range set {
		return rs
	}
	return nil
}

// scaled returns a copy of rs with metric name multiplied by f in every run.
func scaled(rs []run, name string, f float64) []run {
	out := make([]run, len(rs))
	for i, r := range rs {
		ms := make(map[string]measured, len(r.Metrics))
		for k, v := range r.Metrics {
			ms[k] = v
		}
		v := ms[name]
		v.Value *= f
		ms[name] = v
		out[i] = run{Workload: r.Workload, Metrics: ms}
	}
	return out
}

// writeSet writes rs as one file of result lines and returns its path.
func writeSet(t *testing.T, rs []run) string {
	t.Helper()
	var sb strings.Builder
	for _, r := range rs {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(append(b, '\n'))
	}
	return writeFile(t, sb.String())
}

func writeFile(t *testing.T, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "set.jsonl")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareSets(t *testing.T) {
	sp := mustSpec(t)
	a, b := mustSet(t, "testdata/a"), mustSet(t, "testdata/b")
	for _, tc := range []struct {
		name     string
		a, b     []run
		gateFail bool
		// row, when set, is a "metric verdict" pair some row must show.
		row string
		// layers is the number of per-layer rows printed; -1: any.
		layers int
	}{
		{"slowdown-beyond-bound", a, scaled(a, "mallocs_per_op", 1.05), true, "mallocs_per_op REGRESSED", 0},
		{"slowdown-within-bound", a, scaled(a, "mallocs_per_op", 1.01), false, "mallocs_per_op within bound", 0},
		{"speedup-beyond-bound", a, scaled(a, "mallocs_per_op", 0.95), false, "mallocs_per_op improved", 0},
		{"noise", a, b, false, "", -1},
		{"too-few-runs", a[:3], b[:3], true, "setup_s too few runs", 0},
		{"self", a, a, false, "", 0},
		// A per-layer metric that moved is listed and never gates.
		{"per-layer-moved", a, scaled(a, "compile.static_insts", 2), false, "compile.static_insts moved", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			err := judge(sp, writeSet(t, tc.a), writeSet(t, tc.b), true, &out)
			if (err != nil) != tc.gateFail {
				t.Errorf("gate error %v, want failure %v\n%s", err, tc.gateFail, out.String())
			}
			if tc.row != "" {
				metric, verdict, _ := strings.Cut(tc.row, " ")
				found := false
				for _, line := range strings.Split(out.String(), "\n") {
					found = found || strings.Contains(line, " "+metric+" ") && strings.Contains(line, "  "+verdict+" (n=")
				}
				if !found {
					t.Errorf("no %s row with verdict %q:\n%s", metric, verdict, out.String())
				}
			}
			endToEnd, perLayer, _ := strings.Cut(out.String(), "\nper-layer metrics that moved")
			if rows := strings.Count(endToEnd, "\n") - 1; rows != len(sp.EndToEnd) {
				t.Errorf("%d rows, want one per end-to-end metric (%d):\n%s", rows, len(sp.EndToEnd), out.String())
			}
			if layers := strings.Count(perLayer, "  moved (n="); tc.layers >= 0 && layers != tc.layers {
				t.Errorf("%d per-layer rows, want %d:\n%s", layers, tc.layers, out.String())
			}
		})
	}
}

// TestHostileSets feeds malformed result sets: each must be an error, never a
// panic and never a pass.
func TestHostileSets(t *testing.T) {
	sp := mustSpec(t)
	a := mustSet(t, "testdata/a")
	good := writeSet(t, a)
	line, err := json.Marshal(a[0])
	if err != nil {
		t.Fatal(err)
	}
	withValue := func(v string) string {
		return strings.Replace(string(line), `"mallocs_per_op":{"value":35.25`, `"mallocs_per_op":{"value":`+v, 1)
	}
	if withValue("X") == string(line) {
		t.Fatal("fixture's first run no longer has mallocs_per_op 35.25")
	}
	for _, tc := range []struct {
		name string
		b    string
	}{
		{"malformed-line", writeFile(t, string(line)+"{\"workload\":\n")},
		{"nan", writeFile(t, withValue("NaN"))},
		{"inf", writeFile(t, withValue("1e999"))},
		{"unit-mismatch", writeSet(t, func() []run {
			rs := scaled(a, "mallocs_per_op", 1)
			v := rs[0].Metrics["mallocs_per_op"]
			v.Unit = "MB"
			rs[0].Metrics["mallocs_per_op"] = v
			return rs
		}())},
		{"missing-metric", writeFile(t, `{"workload":"compile-matrix","metrics":{}}`)},
		{"empty-file", writeFile(t, "\n\n")},
		{"empty-dir", t.TempDir()},
		{"missing-path", filepath.Join(t.TempDir(), "absent")},
		{"no-common-workload", writeSet(t, []run{{Workload: "other", Metrics: a[0].Metrics}})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, gate := range []bool{false, true} {
				if err := judge(sp, good, tc.b, gate, new(strings.Builder)); err == nil {
					t.Errorf("gate=%v: hostile set B accepted", gate)
				}
			}
		})
	}
}

// TestIdenticalSimulationHidesSimulatedCounters compares two sides of a
// simulating workload whose runs all carry one sim_digest, where B timed
// more rounds than A, so the medians of simulated counters moved without
// any simulated output changing: machine.instret is not listed, one line
// says the outputs are identical, and a host-side metric that moved
// (machine.new.busy_ms) still is. With one B run's digest changed, the
// simulated counter is listed again.
func TestIdenticalSimulationHidesSimulatedCounters(t *testing.T) {
	sp := mustSpec(t)
	a := mustSet(t, "testdata/a")
	// roundsRun is a result line with its round count, which capristat
	// does not read.
	type roundsRun struct {
		run
		Rounds int `json:"rounds"`
	}
	side := func(rounds int, base float64, digests ...string) string {
		var sb strings.Builder
		for i, r := range a {
			ms := make(map[string]measured, len(r.Metrics))
			for k, v := range r.Metrics {
				ms[k] = v
			}
			ms["machine.instret"] = measured{base + float64(i), "count"}
			ms["machine.new.busy_ms"] = measured{base/1000 + float64(i), "ms"}
			b, err := json.Marshal(roundsRun{run{Workload: "crash-audit", SimDigest: digests[i%len(digests)], Metrics: ms}, rounds})
			if err != nil {
				t.Fatal(err)
			}
			sb.Write(append(b, '\n'))
		}
		return writeFile(t, sb.String())
	}
	const digest = "0123456789abcdef0123456789abcdef"
	for _, tc := range []struct {
		name      string
		bDigests  []string
		identical bool
	}{
		{"same-digest", []string{digest}, true},
		{"one-digest-differs", []string{"fedcba9876543210", digest, digest, digest, digest}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			if err := judge(sp, side(5, 100_000, digest), side(7, 200_000, tc.bDigests...), true, &out); err != nil {
				t.Fatalf("gate: %v\n%s", err, out.String())
			}
			text := out.String()
			if !strings.Contains(text, " machine.new.busy_ms ") {
				t.Errorf("host-side machine.new.busy_ms not listed:\n%s", text)
			}
			if got := strings.Contains(text, " machine.instret "); got == tc.identical {
				t.Errorf("machine.instret listed %v, want %v:\n%s", got, !tc.identical, text)
			}
			line := "crash-audit: the simulated outputs are identical (every run carries sim_digest 0123456789ab…)"
			if got := strings.Contains(text, line); got != tc.identical {
				t.Errorf("identical-outputs line present %v, want %v:\n%s", got, tc.identical, text)
			}
		})
	}
}
