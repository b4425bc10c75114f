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
// compile: 52 measured with the program's blocks, instruction lists and
// slice lists carved from pools shared by its functions and sized from it,
// the analyses from one arena sized from it, and the pass table static,
// plus 5%. Pools per function, or chunks of a fixed size, would add about
// 25; a per-boundary map or list allocation about 130.
const maxOceanCompileAllocs = 55

// TestCompileAllocsBounded pins the compiler's allocation budget on its
// largest Fig. 8 input.
func TestCompileAllocsBounded(t *testing.T) {
	src, opts := oceanSource(t)
	n := testing.AllocsPerRun(10, func() { MustCompile(src, opts) })
	if n > maxOceanCompileAllocs {
		t.Errorf("ocean %s@%d compile allocs = %.0f, want <= %d", LevelLICM, opts.Threshold, n, maxOceanCompileAllocs)
	}
}

// TestCompileAllocsGrowSlowly pins that a compile's allocations grow with
// the logarithm of its output, not in proportion: lu +licm at threshold
// 1024 unrolls to at least 11 times the instructions of threshold 16 but
// may cost at most twice its allocations. Fixed-size chunks cost 2.9 times.
func TestCompileAllocsGrowSlowly(t *testing.T) {
	w, err := workload.ByName("lu")
	if err != nil {
		t.Fatal(err)
	}
	src := w.Build(1)
	measure := func(threshold int) (insts int, allocs float64) {
		opts := OptionsForLevel(LevelLICM, threshold)
		insts = MustCompile(src, opts).Stats.Static.Insts
		return insts, testing.AllocsPerRun(10, func() { MustCompile(src, opts) })
	}
	smallInsts, small := measure(16)
	bigInsts, big := measure(1024)
	if bigInsts < 11*smallInsts {
		t.Fatalf("lu emits %d instructions at threshold 1024 and %d at 16; the pin wants an 11-fold growth", bigInsts, smallInsts)
	}
	if big > 2*small {
		t.Errorf("lu %s compile allocs = %.0f at threshold 1024, %.0f at 16: %.2fx, want <= 2x", LevelLICM, big, small, big/small)
	}
}
