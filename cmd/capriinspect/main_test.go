package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"capri/internal/audit"
	"capri/internal/fault"
	"capri/internal/machine"
)

// writeRecord builds a deterministic capri/run-record/v1 file from a
// synthetic event stream, optionally embedding a fault plan.
func writeTestRecord(t *testing.T, dir, name string, events []audit.Event, plan *fault.Plan) string {
	t.Helper()
	rec := audit.NewFlightRecorder(0)
	aud := audit.NewAuditor(audit.Options{ProxyLatency: 40, Windows: true, Cores: 1})
	aud.AttachRecorder(rec)
	sink := audit.Tee(rec, aud)
	for _, e := range events {
		sink.Tap(e)
	}
	rr, err := audit.NewRunRecordFull(rec, aud, "synthetic", "cafe", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan != nil {
		b, err := json.Marshal(plan)
		if err != nil {
			t.Fatal(err)
		}
		rr.Faults = b
	}
	path := filepath.Join(dir, name)
	if err := rr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func testEvents() []audit.Event {
	const addr = uint64(0x100000)
	return []audit.Event{
		{Kind: audit.EvStore, Core: 0, Cycle: 10, Addr: addr, Seq: 1, Region: 1, Val: 7},
		{Kind: audit.EvCommit, Core: 0, Cycle: 12, Region: 1},
		{Kind: audit.EvCrash, Cycle: 40},
		{Kind: audit.EvTornDrainWrite, Core: 0, Cycle: 40, Addr: addr, Seq: 1, Region: 1, Val: 7, Flags: audit.FlagApplied},
	}
}

func testPlan() fault.Plan {
	return fault.Plan{
		Schema:  fault.PlanSchema,
		Target:  fault.Target{Synth: "rmwsweep", Threshold: 64},
		Seed:    9,
		CrashAt: 300,
		Faults: []fault.Fault{
			{Kind: fault.KindTornDrain, Core: 0, Keep: 2},
			{Kind: fault.KindRecoveryCrash, Step: 5},
		},
	}
}

// TestSummaryRendersFaultPlan: summary of a record with an embedded fault
// plan matches the golden rendering — identity, audit verdict, the injected
// faults, and the event census.
func TestSummaryRendersFaultPlan(t *testing.T) {
	plan := testPlan()
	path := writeTestRecord(t, t.TempDir(), "a.json", testEvents(), &plan)
	r, err := audit.ReadRunRecord(path)
	if err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := runSummary(&out, []string{path}); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`schema       capri/run-record/v1
workload     synthetic
fingerprint  cafe
events       4 total, 4 retained, 0 dropped from the ring
digest       %s  (over the complete stream)
audit        ok: 4 events, 0 violations
faults       rmwsweep crash@300, 2 injected (plan seed 9)
  inject       torn-drain(core=0,keep=2)
  inject       recovery-crash(step=5)
cycle span   10 .. 40 (retained tail)
event census (retained tail):
  store                   1
  commit                  1
  crash                   1
  torn-drain              1
`, r.Digest)
	if got := out.String(); got != want {
		t.Errorf("summary golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestSummaryRendersPercentiles: a record carrying a histogram payload gets
// the p50/p99/p999 table; histograms with no samples are omitted from it.
func TestSummaryRendersPercentiles(t *testing.T) {
	path := writeTestRecord(t, t.TempDir(), "m.json", testEvents(), nil)
	r, err := audit.ReadRunRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	var m machine.Metrics
	for i := uint64(1); i <= 1000; i++ {
		m.CommitLat.Record(i)
	}
	m.WPQDepth.Record(3)
	if err := r.SetMetrics(&m); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := runSummary(&out, []string{path}); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	// 1..1000: p50 falls in bucket [256,512) -> upper bound 511; p99 and
	// p999 in [512,1024) -> clamped to Max=1000.
	wantLat := fmt.Sprintf("  %-20s %10d %8d %8d %8d %8d\n", "commit latency", 1000, 511, 1000, 1000, 1000)
	if !strings.Contains(got, wantLat) {
		t.Errorf("summary missing commit-latency percentile row %q:\n%s", wantLat, got)
	}
	wantWPQ := fmt.Sprintf("  %-20s %10d %8d %8d %8d %8d\n", "WPQ depth", 1, 3, 3, 3, 3)
	if !strings.Contains(got, wantWPQ) {
		t.Errorf("summary missing WPQ percentile row %q:\n%s", wantWPQ, got)
	}
	if strings.Contains(got, "front-end occupancy") {
		t.Errorf("empty histogram rendered a percentile row:\n%s", got)
	}

	// Records without a metrics payload print no percentile section.
	bare := writeTestRecord(t, t.TempDir(), "bare.json", testEvents(), nil)
	out.Reset()
	if err := runSummary(&out, []string{bare}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "percentiles") {
		t.Errorf("metrics-less record rendered a percentile section:\n%s", out.String())
	}
}

// TestDiffTreatsPlansAsIdentity: records under different fault plans are
// flagged as different experiments; identical plans are confirmed.
func TestDiffTreatsPlansAsIdentity(t *testing.T) {
	dir := t.TempDir()
	planA := testPlan()
	planB := testPlan()
	planB.CrashAt = 700
	planB.Faults = planB.Faults[:1]
	a := writeTestRecord(t, dir, "a.json", testEvents(), &planA)
	b := writeTestRecord(t, dir, "b.json", testEvents(), &planB)
	same := writeTestRecord(t, dir, "same.json", testEvents(), &planA)
	ra, err := audit.ReadRunRecord(a)
	if err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := runDiff(&out, []string{a, b}); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`identical event streams (digest %s)
fault plans differ — different experiments, not a regression:
  a: rmwsweep crash@300 torn-drain(core=0,keep=2) recovery-crash(step=5)
  b: rmwsweep crash@700 torn-drain(core=0,keep=2)
machine statistics identical
`, ra.Digest)
	if got := out.String(); got != want {
		t.Errorf("diff golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	out.Reset()
	if err := runDiff(&out, []string{a, same}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(),
		"identical fault plans (rmwsweep crash@300 torn-drain(core=0,keep=2) recovery-crash(step=5))") {
		t.Errorf("identical plans not confirmed:\n%s", out.String())
	}
}

// TestDiffNoPlansStaysQuiet: records without fault plans print no plan line
// (the common non-campaign diff is unchanged).
func TestDiffNoPlansStaysQuiet(t *testing.T) {
	dir := t.TempDir()
	a := writeTestRecord(t, dir, "a.json", testEvents(), nil)
	b := writeTestRecord(t, dir, "b.json", testEvents(), nil)
	var out bytes.Buffer
	if err := runDiff(&out, []string{a, b}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "fault plan") {
		t.Errorf("plan line printed for plan-less records:\n%s", out.String())
	}
}
