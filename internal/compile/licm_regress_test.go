package compile_test

import (
	"strings"
	"testing"

	"capri/internal/compile"
	"capri/internal/fault"
	"capri/internal/machine"
	"capri/internal/progen"
	"capri/internal/recovery"
)

// progenProgram is a seed-derived progen program: a progen seed and an
// index into fault.CorpusShapes.
type progenProgram struct {
	seed  uint64
	shape int
}

// staleSlotPrograms are the progen programs LICM used to break: it hoisted
// a def out of a loop whose call wrote the same register, so a function
// returned with a checkpoint slot stale that a caller's continuation reads
// (bench/README.md, "Bug found"). They failed final verification at +licm
// and compiled at every lower level.
var staleSlotPrograms = []progenProgram{
	{1234184038219308628, 1},
	{13477849796602617720, 2},
	{1243045349399245570, 1},
	{15762048773999390834, 2},
	{14593856517704338451, 0},
	{12488321372950235013, 2},
	{4545245758773792956, 0},
}

// headroomPrograms are progen programs on which LICM used to hoist a
// checkpoint into a preheader whose region had no store left under
// threshold 16 ("region at b20 has worst-case 17 stores > threshold 16").
var headroomPrograms = []progenProgram{
	{1557450390005145324, 2},
	{11340581228786899865, 2},
	{4129369297280726133, 2},
}

// compileVerified compiles pp at level l and threshold th with the
// semantic verifier after every pass.
func compileVerified(pp progenProgram, l compile.Level, th int) (*compile.Result, error) {
	opts := compile.OptionsForLevel(l, th)
	opts.VerifyAfter = compile.VerifyAfterAll
	return compile.Compile(progen.Generate(pp.seed, fault.CorpusShapes[pp.shape]), opts)
}

// TestVerifierMatrixStaleSlotPrograms runs the verifier after every pass on
// the stale-slot programs at every level, at small, default and large
// thresholds.
func TestVerifierMatrixStaleSlotPrograms(t *testing.T) {
	for _, pp := range staleSlotPrograms {
		for _, l := range compile.Levels {
			for _, th := range []int{16, 64, 256} {
				if _, err := compileVerified(pp, l, th); err != nil {
					t.Errorf("progen %d shape %d %s@%d: %v", pp.seed, pp.shape, l, th, err)
				}
			}
		}
	}
}

// TestVerifierMatrixHeadroomPrograms compiles the headroom programs at
// +pruning and +licm at threshold 16: LICM must not overflow a region that
// pruning left within the threshold.
func TestVerifierMatrixHeadroomPrograms(t *testing.T) {
	for _, pp := range headroomPrograms {
		for _, l := range []compile.Level{compile.LevelPrune, compile.LevelLICM} {
			if _, err := compileVerified(pp, l, 16); err != nil {
				t.Errorf("progen %d shape %d %s@16: %v", pp.seed, pp.shape, l, err)
			}
		}
	}
}

// skipUnderRace skips a single-goroutine sweep under the race detector,
// which would only slow it tenfold; make check runs the sweeps without it.
func skipUnderRace(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine sweep; runs without the race detector")
	}
}

// TestVerifierMatrixStaleSlotRecovery crashes each stale-slot program,
// compiled at +licm@64, at every instruction: each crash must recover, under
// the auditor, to the golden run's output and memory image.
func TestVerifierMatrixStaleSlotRecovery(t *testing.T) {
	skipUnderRace(t)
	for _, pp := range staleSlotPrograms {
		res, err := compileVerified(pp, compile.LevelLICM, 64)
		if err != nil {
			t.Fatalf("progen %d shape %d: %v", pp.seed, pp.shape, err)
		}
		cfg := machine.DefaultConfig()
		cfg.Capri = true
		cfg.Threshold = 64
		cfg.Cores = max(cfg.Cores, fault.CorpusShapes[pp.shape].Threads)
		cfg.L2Size = 256 << 10
		cfg.DRAMSize = 1 << 20
		g, err := recovery.RunGolden(res.Program, cfg)
		if err != nil {
			t.Fatalf("progen %d shape %d: golden: %v", pp.seed, pp.shape, err)
		}
		sw, err := recovery.Sweep(res.Program, cfg, g, int(g.Instret))
		if err != nil {
			t.Errorf("progen %d shape %d: %v", pp.seed, pp.shape, err)
		} else if sw.Points == 0 {
			t.Errorf("progen %d shape %d: swept no crash point", pp.seed, pp.shape)
		}
	}
}

// TestVerifierMatrixProgenSweep compiles 1,000 seed-mixed progen programs
// at +pruning and +licm with the verifier after every pass, at thresholds
// 16, 64 and 256. Every program compiles, or fails because a region cannot
// fit the threshold at all (the checkpoint pass's infeasible-cut error).
func TestVerifierMatrixProgenSweep(t *testing.T) {
	skipUnderRace(t)
	const seeds = 1000
	state := uint64(1) // splitmix64
	for i := 0; i < seeds; i++ {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		pp := progenProgram{z ^ (z >> 31), i % len(fault.CorpusShapes)}
		for _, th := range []int{16, 64, 256} {
			for _, l := range []compile.Level{compile.LevelPrune, compile.LevelLICM} {
				if _, err := compileVerified(pp, l, th); err != nil && !strings.Contains(err.Error(), "infeasible") {
					t.Errorf("progen %d shape %d %s@%d: %v", pp.seed, pp.shape, l, th, err)
				}
			}
		}
	}
}
