package compile_test

import (
	"testing"

	"capri/internal/compile"
)

// cutPrograms are the programs of the splitmix64 progen stream (state 1,
// 2,000 seeds, shape i % 4, as TestVerifierMatrixProgenSweep draws them)
// that a bounded regions/ckpt fixpoint, which re-placed every boundary each
// round, could not fit at threshold 16: after four rounds a region still
// held 17 stores. The checkpoint pass's add-only region cut must fit them.
var cutPrograms = []progenProgram{
	{667204130221040403, 1},
	{1919746124992161770, 0},
	{615080453734471739, 2},
	{3058067681788679202, 3},
	{17711194582494606027, 2},
	{9581710268950982482, 2},
	{8601875543100917166, 0},
	{6595981493742700881, 2},
	{6776794127605952673, 1},
	{14422780248964811542, 2},
	{7410004396307980082, 2},
	{8452242775369987409, 3},
	{10587719229747503778, 1},
	{1368468889461934644, 0},
}

// TestVerifierMatrixCutPrograms compiles each cut program at threshold 16 at
// every level that inserts checkpoints, with the verifier after every pass.
func TestVerifierMatrixCutPrograms(t *testing.T) {
	for _, pp := range cutPrograms {
		for _, l := range []compile.Level{compile.LevelCkpt, compile.LevelUnroll, compile.LevelPrune, compile.LevelLICM} {
			if _, err := compileVerified(pp, l, 16); err != nil {
				t.Errorf("progen %d shape %d %s@16: %v", pp.seed, pp.shape, l, err)
			}
		}
	}
}
