package capri

// The audited crash sweep: the acceptance gate behind `make audit`. Every
// generated program of a 104-seed corpus is crashed at spread points,
// recovered, and resumed with the online Fig. 7 auditor attached end-to-end
// (run → crash → recovery replay → resumption); any violated provenance
// invariant fails with the offending per-line event chain, and every
// resumed run must end in the golden run's output and full memory image. The 21 paper benchmarks additionally run to completion under the
// auditor. Mutation coverage — that seeded protocol corruptions DO trip the
// auditor — lives in internal/audit's mutation tests.

import (
	"fmt"
	"testing"

	"capri/internal/audit"
	"capri/internal/compile"
	"capri/internal/machine"
	"capri/internal/progen"
	"capri/internal/recovery"
	"capri/internal/workload"
)

// TestAuditProgenCrashSweep sweeps the 104-program progen corpus under the
// auditor.
func TestAuditProgenCrashSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("audited progen sweep is not short")
	}
	const seeds = 104 // 4 shapes x 26 seeds
	shapes := []progen.Config{
		{Funcs: 3, MaxDepth: 3, MaxStmts: 5, MaxLoopTrip: 6, Threads: 1},
		{Funcs: 2, MaxDepth: 2, MaxStmts: 4, MaxLoopTrip: 4, Threads: 2},
		{Funcs: 4, MaxDepth: 3, MaxStmts: 6, MaxLoopTrip: 5, Threads: 1},
		{Funcs: 2, MaxDepth: 2, MaxStmts: 4, MaxLoopTrip: 4, Threads: 2, Barriers: true},
	}
	var events uint64
	points := 0
	for s := 0; s < seeds; s++ {
		shape := shapes[s%len(shapes)]
		name := fmt.Sprintf("seed%d_t%d", s, shape.Threads)
		src := progen.Generate(uint64(s)*0x9e3779b9+1, shape)
		opts := compile.OptionsForLevel(compile.LevelLICM, 64)
		cfg := diffConfig(shape.Threads, 64)
		res, err := recovery.ValidateProgram(src, opts, cfg, 5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		events += res.EventsAudited
		points += res.Points
	}
	if points == 0 || events == 0 {
		t.Fatalf("sweep audited nothing (%d points, %d events)", points, events)
	}
	t.Logf("audited %d crash points, %d provenance events", points, events)
}

// TestAuditBenchmarks runs every paper benchmark stand-in to completion with
// the flight recorder and auditor attached: zero violations, and the event
// stream must cover the full store lifecycle.
func TestAuditBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("audited benchmark sweep is not short")
	}
	for _, b := range workload.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			src := b.Build(benchScale)
			res, err := compile.Compile(src, compile.OptionsForLevel(compile.LevelLICM, 256))
			if err != nil {
				t.Fatal(err)
			}
			m, err := machine.New(res.Program, diffConfig(b.Threads, 256))
			if err != nil {
				t.Fatal(err)
			}
			rec := audit.NewFlightRecorder(audit.DefaultRecorderCap)
			aud := audit.NewAuditor(m.AuditOptions())
			aud.AttachRecorder(rec)
			m.SetTap(audit.Tee(rec, aud))
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if err := aud.Err(); err != nil {
				t.Fatalf("benchmark flagged: %v", err)
			}
			counts := rec.KindCounts()
			for _, k := range []audit.Kind{audit.EvStore, audit.EvCommit, audit.EvDrain} {
				if counts[k] == 0 {
					t.Errorf("no %s events observed", k)
				}
			}
		})
	}
}
