package trace

import (
	"fmt"
	"strings"
	"testing"

	"capri/internal/audit"
	"capri/internal/compile"
	"capri/internal/machine"
	"capri/internal/progen"
)

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder()
	r.Tap(audit.Event{Kind: audit.EvCommit, Core: 1, Cycle: 10, Region: 1})
	r.Tap(audit.Event{Kind: audit.EvStore, Core: 1, Cycle: 12, Addr: 0x100, Seq: 1, Region: 2}) // not a trace kind
	r.Tap(audit.Event{Kind: audit.EvWriteback, Core: 0, Cycle: 20, Addr: 0x100})
	if r.Len() != 2 {
		t.Fatalf("len = %d", r.Len())
	}
	if got := r.Events(); got[1].Kind != audit.EvWriteback || got[1].Addr != 0x100 {
		t.Errorf("events = %v", got)
	}
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"commit", "writeback", "addr=0x100"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("dump missing %q:\n%s", want, sb.String())
		}
	}
	if s := r.Summary(); s != "commit=1 writeback=1" {
		t.Errorf("summary = %q", s)
	}
}

func TestEmptySummary(t *testing.T) {
	if s := NewRecorder().Summary(); s != "(empty trace)" {
		t.Errorf("summary = %q", s)
	}
}

// judge taps a synthetic stream into a Recorder teed with an auditor for a
// two-core machine, requires the trace to keep every event of it, and
// returns the auditor's first violated rule ("" for a clean stream).
func judge(t *testing.T, events []audit.Event) string {
	t.Helper()
	rec := NewRecorder()
	aud := audit.NewAuditor(audit.Options{Cores: 2})
	tap := audit.Tee(rec, aud)
	for _, e := range events {
		tap.Tap(e)
	}
	if rec.Len() != len(events) {
		t.Fatalf("trace kept %d of %d events", rec.Len(), len(events))
	}
	if vs := aud.Violations(); len(vs) != 0 {
		return vs[0].Rule
	}
	return ""
}

func commitEv(core int32, r uint64) audit.Event {
	return audit.Event{Kind: audit.EvCommit, Core: core, Region: r}
}

func drainEv(core int32, r uint64) audit.Event {
	return audit.Event{Kind: audit.EvDrain, Core: core, Region: r}
}

// TestCheckRegionOrderDetectsViolations judges the in-order persistence
// rules over streams the trace shows: the auditor passes the legal one and
// names the rule each bad one breaks.
func TestCheckRegionOrderDetectsViolations(t *testing.T) {
	for _, tc := range []struct {
		name   string
		rule   string // "" for a legal stream
		events []audit.Event
	}{
		{"good", "", []audit.Event{commitEv(0, 1), commitEv(0, 2), drainEv(0, 1), drainEv(0, 2), commitEv(1, 1)}},
		{"non-monotone commits", "commit-order", []audit.Event{commitEv(0, 2), commitEv(0, 1)}},
		{"drain before commit", "drain-before-commit", []audit.Event{drainEv(0, 1)}},
		{"drains out of order", "drain-order",
			[]audit.Event{commitEv(0, 1), commitEv(0, 2), drainEv(0, 2), drainEv(0, 1)}},
	} {
		if got := judge(t, tc.events); got != tc.rule {
			t.Errorf("%s: violated rule %q, want %q", tc.name, got, tc.rule)
		}
	}
}

// countKind returns the number of recorded events of kind k.
func countKind(r *Recorder, k audit.Kind) int {
	n := 0
	for _, e := range r.Events() {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// TestMachineTraceOrdering runs real workloads with a trace Recorder and an
// auditor on one tap and requires the auditor's region-order rules
// (commit-order, drain-before-commit, drain-order: DESIGN.md invariant 6)
// to hold over the actual event stream the trace shows.
func TestMachineTraceOrdering(t *testing.T) {
	gcfg := progen.DefaultConfig()
	gcfg.Threads = 2
	for seed := uint64(0); seed < 6; seed++ {
		p := progen.Generate(seed*11+2, gcfg)
		res, err := compile.Compile(p, compile.OptionsForLevel(compile.LevelLICM, 16))
		if err != nil {
			t.Fatal(err)
		}
		cfg := machine.DefaultConfig()
		cfg.Cores = 2
		cfg.Threshold = 16
		cfg.L2Size = 256 << 10
		cfg.DRAMSize = 1 << 20
		m, err := machine.New(res.Program, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := NewRecorder()
		aud := audit.NewAuditor(m.AuditOptions())
		m.SetTap(audit.Tee(rec, aud))
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if rec.Len() == 0 {
			t.Fatal("no events recorded")
		}
		if err := aud.Err(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		// Every non-elided committed region must eventually drain (quiesce
		// guarantees it). Elided boundaries commit without emitting a marker,
		// so they never drain: commits == drains + elided, machine-wide.
		commits := countKind(rec, audit.EvCommit)
		drains := countKind(rec, audit.EvDrain)
		elided := int(m.Stats().ElidedBds)
		if commits != drains+elided {
			t.Errorf("seed %d: %d commits, %d drains, %d elided (want commits == drains+elided)",
				seed, commits, drains, elided)
		}
	}
}

// TestDrainPayloadMatchesTap runs a real workload with a trace Recorder and
// asserts that every drain carrying data renders its tap payload — the
// lowest and highest drained word (Val/Val2) and the entry count (Count) —
// in its text line, with the range in order.
func TestDrainPayloadMatchesTap(t *testing.T) {
	gcfg := progen.DefaultConfig()
	gcfg.Threads = 2
	p := progen.Generate(2, gcfg)
	res, err := compile.Compile(p, compile.OptionsForLevel(compile.LevelLICM, 16))
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.Cores = 2
	cfg.Threshold = 16
	cfg.L2Size = 256 << 10
	cfg.DRAMSize = 1 << 20
	m, err := machine.New(res.Program, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	m.SetTap(rec)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	drains, withData := 0, 0
	for i, d := range rec.Events() {
		if d.Kind != audit.EvDrain {
			continue
		}
		drains++
		if d.Count == 0 {
			continue
		}
		withData++
		if d.Val > d.Val2 {
			t.Fatalf("event %d: drain range inverted: lo=%#x hi=%#x", i, d.Val, d.Val2)
		}
		want := fmt.Sprintf("entries=%d lo=%#x hi=%#x", d.Count, d.Val, d.Val2)
		if l := line(d); !strings.HasSuffix(l, want) {
			t.Fatalf("event %d: drain text line %q lacks payload %q", i, l, want)
		}
	}
	if drains == 0 {
		t.Fatal("no drains recorded")
	}
	if withData == 0 {
		t.Fatal("every drain was data-free — payload untested")
	}
}
