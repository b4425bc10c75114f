package compile_test

import (
	"strings"
	"testing"

	"capri/internal/compile"
	"capri/internal/fault"
	"capri/internal/progen"
)

// fixpointFailure is a progen program on which the regions/ckpt fixpoint
// does not fit threshold 16 within its rounds, and the levels at which it
// fails that way.
type fixpointFailure struct {
	progenProgram
	levels []compile.Level
}

// fromCkpt is every level that runs the checkpoint pass.
var fromCkpt = []compile.Level{compile.LevelCkpt, compile.LevelUnroll, compile.LevelPrune, compile.LevelLICM}

// fixpointFailures are the programs of the splitmix64 progen stream
// (state 1, 2,000 seeds, shape i % 4, as TestVerifierMatrixProgenSweep
// draws them) that fail at threshold 16 with "region at bN has worst-case
// 17 stores > threshold 16 (after 4 rounds)": 14 at +ckpt and 13 at every
// level after it. More rounds do not help: at 8 and 16 rounds most of them
// still fail.
var fixpointFailures = []fixpointFailure{
	{progenProgram{667204130221040403, 1}, fromCkpt},
	{progenProgram{1919746124992161770, 0}, fromCkpt},
	{progenProgram{615080453734471739, 2}, fromCkpt[:1]},
	{progenProgram{3058067681788679202, 3}, fromCkpt},
	{progenProgram{17711194582494606027, 2}, fromCkpt},
	{progenProgram{9581710268950982482, 2}, fromCkpt},
	{progenProgram{8601875543100917166, 0}, fromCkpt},
	{progenProgram{6595981493742700881, 2}, fromCkpt},
	{progenProgram{6776794127605952673, 1}, fromCkpt},
	{progenProgram{14422780248964811542, 2}, fromCkpt},
	{progenProgram{7410004396307980082, 2}, fromCkpt},
	{progenProgram{8452242775369987409, 3}, fromCkpt},
	{progenProgram{10587719229747503778, 1}, fromCkpt},
	{progenProgram{1368468889461934644, 0}, fromCkpt},
}

// TestRegionsCkptFixpointKnownFailures pins the open fixpoint failure: each
// listed program still fails at each listed level with the out-of-rounds
// error. A fix that makes them compile fails this test; then move the
// programs into a test that requires them to compile.
func TestRegionsCkptFixpointKnownFailures(t *testing.T) {
	for _, ff := range fixpointFailures {
		for _, l := range ff.levels {
			src := progen.Generate(ff.seed, fault.CorpusShapes[ff.shape])
			_, err := compile.Compile(src, compile.OptionsForLevel(l, 16))
			if err == nil || !strings.Contains(err.Error(), "(after 4 rounds)") {
				t.Errorf("progen %d shape %d %s@16: got %v, want the regions/ckpt fixpoint's out-of-rounds error", ff.seed, ff.shape, l, err)
			}
		}
	}
}
