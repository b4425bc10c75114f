package trace

import (
	"strings"
	"testing"

	"capri/internal/audit"
	"capri/internal/compile"
	"capri/internal/machine"
	"capri/internal/progen"
)

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder()
	r.Record(Event{Kind: KindRegionCommit, Core: 1, Cycle: 10, Region: 1})
	r.Record(Event{Kind: KindWriteback, Core: 0, Cycle: 20, Addr: 0x100})
	if r.Len() != 2 {
		t.Fatalf("len = %d", r.Len())
	}
	if got := r.Filter(KindWriteback); len(got) != 1 || got[0].Addr != 0x100 {
		t.Errorf("filter = %v", got)
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
	if !strings.Contains(r.Summary(), "commit=1") {
		t.Errorf("summary = %q", r.Summary())
	}
}

func TestEmptySummary(t *testing.T) {
	if s := NewRecorder().Summary(); s != "(empty trace)" {
		t.Errorf("summary = %q", s)
	}
}

func TestCheckRegionOrderDetectsViolations(t *testing.T) {
	good := []Event{
		{Kind: KindRegionCommit, Core: 0, Region: 1},
		{Kind: KindRegionCommit, Core: 0, Region: 2},
		{Kind: KindPhase2Drain, Core: 0, Region: 1},
		{Kind: KindPhase2Drain, Core: 0, Region: 2},
		{Kind: KindRegionCommit, Core: 1, Region: 1},
	}
	if err := CheckRegionOrder(good); err != nil {
		t.Errorf("good trace rejected: %v", err)
	}

	nonMonotone := []Event{
		{Kind: KindRegionCommit, Core: 0, Region: 2},
		{Kind: KindRegionCommit, Core: 0, Region: 1},
	}
	if err := CheckRegionOrder(nonMonotone); err == nil {
		t.Error("non-monotone commits accepted")
	}

	drainFirst := []Event{
		{Kind: KindPhase2Drain, Core: 0, Region: 1},
	}
	if err := CheckRegionOrder(drainFirst); err == nil {
		t.Error("drain before commit accepted")
	}

	drainOutOfOrder := []Event{
		{Kind: KindRegionCommit, Core: 0, Region: 1},
		{Kind: KindRegionCommit, Core: 0, Region: 2},
		{Kind: KindPhase2Drain, Core: 0, Region: 2},
		{Kind: KindPhase2Drain, Core: 0, Region: 1},
	}
	if err := CheckRegionOrder(drainOutOfOrder); err == nil {
		t.Error("out-of-region-order drains accepted")
	}
}

// TestMachineTraceOrdering runs real workloads with a trace Recorder on the
// tap and asserts the in-order region persistence invariant (DESIGN.md
// invariant 6) over the actual event stream.
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
		m.SetTap(rec)
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if rec.Len() == 0 {
			t.Fatal("no events recorded")
		}
		if err := CheckRegionOrder(rec.Events()); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		// Every non-elided committed region must eventually drain (quiesce
		// guarantees it). Elided boundaries commit without emitting a marker,
		// so they never drain: commits == drains + elided, machine-wide.
		commits := len(rec.Filter(KindRegionCommit))
		drains := len(rec.Filter(KindPhase2Drain))
		elided := int(m.Stats().ElidedBds)
		if commits != drains+elided {
			t.Errorf("seed %d: %d commits, %d drains, %d elided (want commits == drains+elided)",
				seed, commits, drains, elided)
		}
	}
}

// TestDrainPayloadMatchesTap runs a real workload with a trace Recorder and
// a flight recorder teed onto one tap and asserts they report the *same*
// drain payload: every trace drain's (core, region, addrLo, addrHi, entries)
// must equal the corresponding EvDrain event — Perfetto spans and the auditor
// see one truth.
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
	fr := audit.NewFlightRecorder(0)
	m.SetTap(audit.Tee(rec, fr))
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	drains := rec.Filter(KindPhase2Drain)
	var taps []audit.Event
	for _, e := range fr.Events() {
		if e.Kind == audit.EvDrain {
			taps = append(taps, e)
		}
	}
	if len(drains) == 0 {
		t.Fatal("no drains recorded")
	}
	if len(drains) != len(taps) {
		t.Fatalf("trace saw %d drains, flight recorder saw %d", len(drains), len(taps))
	}
	withData := 0
	for i, d := range drains {
		a := taps[i]
		if d.Core != int(a.Core) || d.Region != a.Region ||
			d.Addr != a.Val || d.Addr2 != a.Val2 || d.Count != int(a.Count) {
			t.Fatalf("drain %d payload diverged: trace=%+v tap=%+v", i, d, a)
		}
		if d.Count > 0 {
			withData++
			if d.Addr > d.Addr2 {
				t.Fatalf("drain %d range inverted: lo=%#x hi=%#x", i, d.Addr, d.Addr2)
			}
			line := d.String()
			if !strings.Contains(line, "entries=") || !strings.Contains(line, "lo=") {
				t.Fatalf("drain text line lacks payload: %q", line)
			}
		}
	}
	if withData == 0 {
		t.Fatal("every drain was data-free — payload untested")
	}
}

func TestKindString(t *testing.T) {
	if KindRegionCommit.String() != "commit" || KindRecovery.String() != "recovery" {
		t.Error("kind names wrong")
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Error("unknown kind not rendered")
	}
}
