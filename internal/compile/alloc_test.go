package compile

import (
	"testing"

	"capri/internal/prog"
	"capri/internal/workload"
)

// oceanSource returns ocean's source and the +licm@256 options the compile
// allocation pins measure.
func oceanSource(t testing.TB) (*prog.Program, Options) {
	t.Helper()
	w, err := workload.ByName("ocean")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build(1)
	return p, OptionsForLevel(LevelLICM, DefaultThreshold)
}

// TestFingerprintZeroAlloc pins that fingerprinting a compiled program, with
// recovery slices on its boundary blocks, allocates nothing.
func TestFingerprintZeroAlloc(t *testing.T) {
	src, opts := oceanSource(t)
	p := MustCompile(src, opts).Program
	slices := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			slices += len(b.RecoverySlices)
		}
	}
	if slices == 0 {
		t.Fatal("compiled ocean carries no recovery slices")
	}
	if n := testing.AllocsPerRun(20, func() { p.Fingerprint() }); n != 0 {
		t.Errorf("Fingerprint allocs = %.0f, want 0", n)
	}
}

// maxOceanCompileAllocs is the allocation budget of one ocean +licm@256
// compile: 210 measured with every analysis carved from one arena per
// compile and recovery slice lists carved from the function, plus 5%. A
// per-boundary map or list allocation would add about 130.
const maxOceanCompileAllocs = 220

// TestCompileAllocsBounded pins the compiler's allocation budget on its
// largest Fig. 8 input.
func TestCompileAllocsBounded(t *testing.T) {
	src, opts := oceanSource(t)
	n := testing.AllocsPerRun(10, func() { MustCompile(src, opts) })
	if n > maxOceanCompileAllocs {
		t.Errorf("ocean %s@%d compile allocs = %.0f, want <= %d", LevelLICM, opts.Threshold, n, maxOceanCompileAllocs)
	}
}
