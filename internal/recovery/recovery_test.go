package recovery

import (
	"fmt"
	"strings"
	"testing"

	"capri/internal/compile"
	"capri/internal/machine"
	"capri/internal/progen"
)

// testConfig is a compact machine for crash sweeps.
func testConfig() machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Cores = 4
	cfg.L2Size = 256 << 10
	cfg.DRAMSize = 1 << 20
	cfg.MaxSteps = 200_000_000
	return cfg
}

func TestGeneratedProgramsTerminate(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		p := progen.Generate(seed, progen.DefaultConfig())
		if err := p.Verify(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cfg := testConfig()
		cfg.Capri = false
		m, err := machine.New(p, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := m.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(m.Output(0)) == 0 {
			t.Fatalf("seed %d: no output", seed)
		}
	}
}

func TestGeneratedProgramsDeterministic(t *testing.T) {
	cfg := testConfig()
	cfg.Capri = false
	for seed := uint64(100); seed < 110; seed++ {
		p := progen.Generate(seed, progen.DefaultConfig())
		g1, err := RunGolden(p, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		g2, err := RunGolden(p, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if g1.Instret != g2.Instret {
			t.Fatalf("seed %d: nondeterministic instret", seed)
		}
		for t2 := range g1.Outputs {
			for i := range g1.Outputs[t2] {
				if g1.Outputs[t2][i] != g2.Outputs[t2][i] {
					t.Fatalf("seed %d: nondeterministic output", seed)
				}
			}
		}
	}
}

// TestPropertyCrashRecoverySingleThread is the repository's strongest
// single-thread property test: random structured programs, random compiler
// settings, crash sweeps validated against the golden state — every crashed
// run observed by the online Fig. 7 auditor.
func TestPropertyCrashRecoverySingleThread(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 6
	}
	thresholds := []int{8, 32, 256}
	levels := []compile.Level{compile.LevelCkpt, compile.LevelUnroll, compile.LevelLICM}
	audited := uint64(0)
	for seed := 0; seed < seeds; seed++ {
		p := progen.Generate(uint64(seed)*7919+13, progen.DefaultConfig())
		th := thresholds[seed%len(thresholds)]
		lv := levels[seed%len(levels)]
		opts := compile.OptionsForLevel(lv, th)
		cfg := testConfig()
		cfg.Threshold = th
		res, err := ValidateProgram(p, opts, cfg, 12)
		if err != nil {
			t.Errorf("seed %d (th=%d level=%s): %v", seed, th, lv, err)
			continue
		}
		audited += res.EventsAudited
	}
	if audited == 0 {
		t.Error("auditor observed no events across the whole property sweep")
	}
}

// TestPropertyCrashRecoveryMultiThread extends the property to 2-thread DRF
// programs with a lock-protected shared counter, under the auditor.
func TestPropertyCrashRecoveryMultiThread(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 3
	}
	gcfg := progen.DefaultConfig()
	gcfg.Threads = 2
	for seed := 0; seed < seeds; seed++ {
		p := progen.Generate(uint64(seed)*104729+7, gcfg)
		th := []int{16, 64}[seed%2]
		opts := compile.OptionsForLevel(compile.LevelLICM, th)
		cfg := testConfig()
		cfg.Threshold = th
		if _, err := ValidateProgram(p, opts, cfg, 10); err != nil {
			t.Errorf("seed %d (th=%d): %v", seed, th, err)
		}
	}
}

func TestSweepReportsActivity(t *testing.T) {
	p := progen.Generate(42, progen.DefaultConfig())
	opts := compile.DefaultOptions()
	opts.Threshold = 16
	cfg := testConfig()
	cfg.Threshold = 16
	res, err := ValidateProgram(p, opts, cfg, 15)
	if err != nil {
		t.Fatal(err)
	}
	if res.Points == 0 {
		t.Error("sweep injected no crashes")
	}
	if res.RegionsRedone == 0 {
		t.Error("no regions were ever replayed from the proxy buffers")
	}
}

// TestRunVacuousWhenFinished: a crash point past the end of the program is
// a vacuous run, and the finished run is still checked against golden.
func TestRunVacuousWhenFinished(t *testing.T) {
	p := progen.Generate(1, progen.DefaultConfig())
	res, err := compile.Compile(p, compile.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	g, err := RunGolden(res.Program, cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := Run(res.Program, cfg, g, g.Instret+1000, Faults{})
	if o.Err != nil {
		t.Fatal(o.Err)
	}
	if !o.Vacuous || o.Crashed || o.Report != nil {
		t.Errorf("crash beyond program end: vacuous %v, crashed %v, report %v", o.Vacuous, o.Crashed, o.Report)
	}
	g.Outputs[0] = append(g.Outputs[0], 1)
	if o := Run(res.Program, cfg, g, g.Instret+1000, Faults{}); o.Err == nil {
		t.Error("vacuous run not checked against golden")
	}
}

func TestValidateRejectsBadCompile(t *testing.T) {
	p := progen.Generate(3, progen.DefaultConfig())
	if _, err := ValidateProgram(p, compile.Options{Threshold: -1}, testConfig(), 3); err == nil {
		t.Error("negative threshold accepted")
	}
}

// TestInlinedProgramsRecover extends the property tests to the inlining
// extension: generated programs compiled with inlining enabled must behave
// and recover exactly like their golden runs.
func TestInlinedProgramsRecover(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 3
	}
	gcfg := progen.DefaultConfig()
	gcfg.Threads = 2
	for seed := 0; seed < seeds; seed++ {
		p := progen.Generate(uint64(seed)*6151+17, gcfg)
		opts := compile.OptionsForLevel(compile.LevelLICM, 32)
		opts.Inline = true
		cfg := testConfig()
		cfg.Threshold = 32
		if _, err := ValidateProgram(p, opts, cfg, 8); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestInlineMatchesNonInlineOutputs compiles the same generated programs
// with and without inlining and compares final outputs of full runs.
func TestInlineMatchesNonInlineOutputs(t *testing.T) {
	gcfg := progen.DefaultConfig()
	gcfg.Threads = 1
	for seed := uint64(0); seed < 8; seed++ {
		p := progen.Generate(seed*211+9, gcfg)
		run := func(inline bool) []uint64 {
			opts := compile.DefaultOptions()
			opts.Inline = inline
			res, err := compile.Compile(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			m, err := machine.New(res.Program, testConfig())
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			return m.Output(0)
		}
		a, b := run(false), run(true)
		if len(a) != len(b) {
			t.Fatalf("seed %d: output lengths differ", seed)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: output[%d] differs: %d vs %d", seed, i, a[i], b[i])
			}
		}
	}
}

// TestPropertyCrashRecoveryBarriers fuzzes SPMD programs whose workers
// synchronize through sense-reversing barriers in persistent memory —
// crashes land inside barrier episodes and recovery must release everyone.
func TestPropertyCrashRecoveryBarriers(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 3
	}
	gcfg := progen.DefaultConfig()
	gcfg.Threads = 3
	gcfg.Barriers = true
	for seed := 0; seed < seeds; seed++ {
		p := progen.Generate(uint64(seed)*48611+29, gcfg)
		opts := compile.OptionsForLevel(compile.LevelLICM, 32)
		cfg := testConfig()
		cfg.Cores = 3
		cfg.Threshold = 32
		if _, err := ValidateProgram(p, opts, cfg, 10); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestRunAuditsEveryRun: every crashed run carries the auditor, which must
// have observed a non-trivial event stream and hold no violations for an
// unmutated run.
func TestRunAuditsEveryRun(t *testing.T) {
	p := progen.Generate(42, progen.DefaultConfig())
	opts := compile.DefaultOptions()
	opts.Threshold = 16
	res, err := compile.Compile(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Threshold = 16
	g, err := RunGolden(res.Program, cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := Run(res.Program, cfg, g, g.Instret/2, Faults{})
	if o.Err != nil {
		t.Fatal(o.Err)
	}
	if !o.Crashed || o.Report == nil {
		t.Fatal("crash point not reached")
	}
	if o.Auditor == nil || o.EventsAudited == 0 || o.EventsAudited != o.Auditor.EventsAudited() {
		t.Fatal("auditor observed no events")
	}
	if o.Auditor.ViolationCount() != 0 {
		t.Fatalf("unmutated run flagged: %v", o.Auditor.Err())
	}
}

// TestRunComparesWholeImage: the recovered run must reproduce the golden
// memory image exactly — a word the golden run never wrote is a divergence
// too, not only a golden word with the wrong value.
func TestRunComparesWholeImage(t *testing.T) {
	p := progen.Generate(42, progen.DefaultConfig())
	res, err := compile.Compile(p, compile.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	g, err := RunGolden(res.Program, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if o := Run(res.Program, cfg, g, g.Instret/2, Faults{}); o.Err != nil || o.Report == nil {
		t.Fatalf("unmodified golden: report %v, err %v", o.Report, o.Err)
	}
	var hi uint64
	for a := range g.Mem {
		hi = max(hi, a)
	}
	delete(g.Mem, hi)
	err = Run(res.Program, cfg, g, g.Instret/2, Faults{}).Err
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("mem[%#x]", hi)) {
		t.Fatalf("recovered word absent from golden not reported at %#x: %v", hi, err)
	}
}
