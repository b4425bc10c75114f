package compile_test

import (
	"fmt"
	"strings"
	"testing"

	"capri/internal/compile"
	"capri/internal/fault"
	"capri/internal/progen"
)

// staleSlotPrograms are the seed-derived progen programs, as (progen seed,
// fault.CorpusShapes index), that fail final verification at +licm: a
// function returns with a checkpoint slot stale that a caller's
// continuation reads (bench/README.md, "Bug found"). They compile and
// verify at every lower level.
var staleSlotPrograms = []struct {
	seed  uint64
	shape int
}{
	{1234184038219308628, 1},
	{13477849796602617720, 2},
	{1243045349399245570, 1},
	{15762048773999390834, 2},
	{14593856517704338451, 0},
	{12488321372950235013, 2},
	{4545245758773792956, 0},
}

// TestVerifierMatrixStaleSlotPrograms runs the verifier after every pass on
// the stale-slot programs at every level below +licm, at small, default
// and large thresholds: the passes that lead up to LICM must stay clean on
// them.
func TestVerifierMatrixStaleSlotPrograms(t *testing.T) {
	for _, sp := range staleSlotPrograms {
		p := progen.Generate(sp.seed, fault.CorpusShapes[sp.shape])
		for _, l := range compile.Levels {
			if l == compile.LevelLICM {
				continue
			}
			for _, th := range []int{16, 64, 256} {
				opts := compile.OptionsForLevel(l, th)
				opts.VerifyAfter = compile.VerifyAfterAll
				if _, err := compile.Compile(p, opts); err != nil {
					t.Errorf("progen %d shape %d %s@%d: %v", sp.seed, sp.shape, l, th, err)
				}
			}
		}
	}
}

// TestVerifierMatrixKnownStaleSlotFailure pins the known +licm failure on
// the stale-slot programs: each fails final verification at threshold 64
// with the stale-slot diagnostic. When LICM is fixed this test fails; then
// move +licm into TestVerifierMatrixStaleSlotPrograms and drop this pin.
func TestVerifierMatrixKnownStaleSlotFailure(t *testing.T) {
	for _, sp := range staleSlotPrograms {
		p := progen.Generate(sp.seed, fault.CorpusShapes[sp.shape])
		_, err := compile.Compile(p, compile.OptionsForLevel(compile.LevelLICM, 64))
		name := fmt.Sprintf("progen %d shape %d", sp.seed, sp.shape)
		if err == nil || !strings.Contains(err.Error(), "returns with stale slots") ||
			!strings.Contains(err.Error(), "caller continuation reads") {
			t.Errorf("%s +licm@64: err = %v, want the stale-slot verifier failure", name, err)
		}
	}
}
