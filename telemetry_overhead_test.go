package capri

// Telemetry observer-equivalence and overhead tests (DESIGN.md §4j): the
// live telemetry bus must be a pure observer. Arming it — or attaching a
// full bus with an HTTP sampler scraping mid-run — must leave every
// simulated observable byte-identical, and the disarmed hot path must not
// allocate a single extra object versus the armed one (publishing is
// atomic adds only; the off state is one pointer load per run).

import (
	"net/http"
	"reflect"
	"testing"

	"capri/internal/compile"
	"capri/internal/machine"
	"capri/internal/prog"
	"capri/internal/progen"
	"capri/internal/telemetry"
	"capri/internal/workload"
)

// telemetryProgram compiles one small two-thread generated program — enough
// work to cross the machine's telemetry publish interval on the threaded
// core while keeping the armed/disarmed matrix fast.
func telemetryProgram(t *testing.T) *prog.Program {
	t.Helper()
	src := progen.Generate(11, progen.Config{Funcs: 3, MaxDepth: 3, MaxStmts: 5, MaxLoopTrip: 6, Threads: 2})
	res, err := compile.Compile(src, compile.OptionsForLevel(compile.LevelLICM, 64))
	if err != nil {
		t.Fatal(err)
	}
	return res.Program
}

// TestDispatchEquivalenceTelemetry runs both dispatch cores on a paper
// benchmark and a generated program with machine telemetry disarmed,
// armed, and armed with a live bus being scraped — the images, the full
// stats, and the audit event digests must be identical in all three.
func TestDispatchEquivalenceTelemetry(t *testing.T) {
	telemetry.DisableMachine()
	b, err := workload.ByName("genome")
	if err != nil {
		t.Fatal(err)
	}
	bres, err := compile.Compile(b.Build(benchScale), compile.OptionsForLevel(compile.LevelLICM, 256))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		p         *prog.Program
		threads   int
		threshold int
	}{
		{"genome", bres.Program, b.Threads, 256},
		{"progen-mt2", telemetryProgram(t), 2, 64},
	}
	for _, tc := range cases {
		for _, disp := range []machine.DispatchMode{machine.DispatchThreaded, machine.DispatchSwitch} {
			cfg := diffConfig(tc.threads, tc.threshold)
			cfg.Dispatch = disp
			what := tc.name + "/" + disp.String()

			offImg, offStats, offDig := dispatchRun(t, what+" disarmed", tc.p, tc.threads, cfg, true)

			telemetry.EnableMachine()
			onImg, onStats, onDig := dispatchRun(t, what+" armed", tc.p, tc.threads, cfg, true)
			telemetry.DisableMachine()

			bus, err := telemetry.Start(telemetry.Options{Listen: "127.0.0.1:0"})
			if err != nil {
				t.Fatal(err)
			}
			busImg, busStats, busDig := dispatchRun(t, what+" bus", tc.p, tc.threads, cfg, true)
			if resp, err := http.Get("http://" + bus.Addr() + "/metrics"); err != nil {
				t.Errorf("%s: scrape: %v", what, err)
			} else {
				resp.Body.Close()
			}
			bus.Stop()

			requireIdentical(t, what+" armed vs disarmed", onImg, offImg)
			requireIdentical(t, what+" bus vs disarmed", busImg, offImg)
			if !reflect.DeepEqual(onStats, offStats) {
				t.Errorf("%s: armed stats diverge:\n  off %+v\n  on  %+v", what, offStats, onStats)
			}
			if !reflect.DeepEqual(busStats, offStats) {
				t.Errorf("%s: bus stats diverge:\n  off %+v\n  bus %+v", what, offStats, busStats)
			}
			if onDig != offDig || busDig != offDig {
				t.Errorf("%s: audit streams diverge: off %d events (%#x), on %d (%#x), bus %d (%#x)",
					what, offDig.n, offDig.sum, onDig.n, onDig.sum, busDig.n, busDig.sum)
			}
		}
	}
}

// TestTelemetryZeroAllocWhenOff counter-asserts the zero-overhead-when-off
// contract: a full machine run allocates exactly the same number of
// objects with telemetry disarmed as armed. Publishing is atomic adds
// into preallocated snapshot structs, and the disarmed gate is one
// pointer load — neither side may put anything on the heap.
func TestTelemetryZeroAllocWhenOff(t *testing.T) {
	telemetry.DisableMachine()
	p := telemetryProgram(t)
	cfg := diffConfig(2, 64)
	run := func() {
		m, err := machine.New(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm any process-global caches before counting
	off := testing.AllocsPerRun(5, run)
	telemetry.EnableMachine()
	on := testing.AllocsPerRun(5, run)
	telemetry.DisableMachine()
	if off != on {
		t.Errorf("telemetry arming changed the run's allocation count: disarmed %.0f, armed %.0f", off, on)
	}
}
