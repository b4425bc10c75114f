package capri

// Resume-accounting differential test: run() keeps the global retired-
// instruction counter (m.retired) across entries instead of re-summing
// per-core instret, and rebuilds its run queue per entry. Segmenting an execution with RunUntil checkpoints and
// finishing with Run must therefore land on exactly the same machine as one
// uninterrupted Run — same images, same cycle ledger, same retirement — or
// the resume path is re-deriving state it should have kept (or keeping state
// it should have re-derived).

import (
	"reflect"
	"testing"

	"capri/internal/compile"
	"capri/internal/machine"
	"capri/internal/workload"
)

func TestResumeAccountingSegments(t *testing.T) {
	for _, name := range []string{"water-spatial", "fft"} {
		t.Run(name, func(t *testing.T) {
			bm, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := compile.Compile(bm.Build(benchScale), compile.OptionsForLevel(compile.LevelLICM, 256))
			if err != nil {
				t.Fatal(err)
			}
			cfg := diffConfig(bm.Threads, 256)

			golden, err := machine.New(res.Program, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := golden.Run(); err != nil {
				t.Fatal(err)
			}
			gImg := imageOf(golden, bm.Threads)
			total := golden.Instret()
			if total < 10 {
				t.Fatalf("workload too small to segment: %d instret", total)
			}

			// Same program, executed as three segments: two instruction-count
			// checkpoints (which run on the strict crash-exact schedule and
			// tear down the scheduler state between entries) and a final Run
			// to completion.
			seg, err := machine.New(res.Program, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, at := range []uint64{total / 3, 2 * total / 3} {
				if err := seg.RunUntil(at); err != nil {
					t.Fatal(err)
				}
				if got := seg.Instret(); got < at {
					t.Fatalf("RunUntil(%d) stopped early at %d retired", at, got)
				}
			}
			if err := seg.Run(); err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, name+" (segmented)", imageOf(seg, bm.Threads), gImg)
			if a, b := comparableStats(seg.Stats()), comparableStats(golden.Stats()); !reflect.DeepEqual(a, b) {
				t.Errorf("%s: segmented stats diverge beyond Steps/run-queue counters:\n  segmented %+v\n  golden    %+v", name, a, b)
			}
		})
	}
}
