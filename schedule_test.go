package capri

// One-schedule test: an armed crash point must not change how the machine
// schedules its cores. A RunUntil whose crash point lies beyond the end of
// the program therefore runs the same dispatches as a plain Run and ends in
// the same machine, down to every counter in Stats — dispatch steps,
// run-queue ops and decode-cache traffic included. The crash point sits 64
// instructions past the end, further than one fused dispatch can retire, so
// no dispatch is ever made near it.

import (
	"fmt"
	"reflect"
	"testing"

	"capri/internal/compile"
	"capri/internal/machine"
	"capri/internal/prog"
	"capri/internal/progen"
	"capri/internal/workload"
)

// requireOneSchedule runs p once with Run and once with a crash point armed
// past its end, and requires identical images and identical full Stats.
func requireOneSchedule(t *testing.T, what string, p *prog.Program, threads, threshold int) {
	t.Helper()
	cfg := diffConfig(threads, threshold)
	cfg.Dispatch = machine.DispatchThreaded

	golden, err := machine.New(p, cfg)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if err := golden.Run(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	armed, err := machine.New(p, cfg)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if err := armed.RunUntil(golden.Instret() + 64); err != nil {
		t.Fatalf("%s (armed): %v", what, err)
	}
	requireIdentical(t, what+" (armed)", imageOf(armed, threads), imageOf(golden, threads))
	if a, b := armed.Stats(), golden.Stats(); !reflect.DeepEqual(a, b) {
		t.Errorf("%s: crash-armed run scheduled differently:\n  armed %+v\n  clean %+v", what, a, b)
	}
}

func TestCrashArmedRunSharesSchedule(t *testing.T) {
	for _, name := range []string{"fft", "water-nsquared"} {
		t.Run(name, func(t *testing.T) {
			bm, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := compile.Compile(bm.Build(benchScale), compile.OptionsForLevel(compile.LevelLICM, 256))
			if err != nil {
				t.Fatal(err)
			}
			requireOneSchedule(t, name, res.Program, bm.Threads, 256)
		})
	}
	for _, threads := range []int{2, 4, 8} {
		for s := 0; s < 2; s++ {
			shape := progen.Config{Funcs: 2, MaxDepth: 2, MaxStmts: 5, MaxLoopTrip: 5, Threads: threads, Barriers: s == 1}
			name := fmt.Sprintf("cores%d_seed%d", threads, s)
			t.Run(name, func(t *testing.T) {
				src := progen.Generate(uint64(threads*1000+s)*0x9e3779b9+7, shape)
				res, err := compile.Compile(src, compile.OptionsForLevel(compile.LevelLICM, 64))
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				requireOneSchedule(t, name, res.Program, threads, 64)
			})
		}
	}
}
