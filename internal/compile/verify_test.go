package compile

import (
	"fmt"
	"strings"
	"testing"

	"capri/internal/isa"
	"capri/internal/prog"
	"capri/internal/workload"
)

// TestVerifierMatrix runs the semantic verifier after every pass for every
// workload benchmark at every optimization level across small, default and
// large thresholds. This is the acceptance gate for the whole pipeline: the
// verifier must be green everywhere without weakening any check.
func TestVerifierMatrix(t *testing.T) {
	thresholds := []int{64, 256, 1024}
	for _, b := range workload.All() {
		p := b.Build(1)
		for _, l := range Levels {
			for _, th := range thresholds {
				opts := OptionsForLevel(l, th)
				opts.VerifyAfter = VerifyAfterAll
				if _, err := Compile(p, opts); err != nil {
					t.Errorf("%s %s@%d: %v", b.Name, l, th, err)
				}
			}
		}
	}
}

// TestCompileFingerprintsRepeat compiles every benchmark at every level and
// two thresholds five times in one process and requires identical output
// fingerprints. Passes that range over a block set (LICM's hoist choice,
// unrolling's body weights) visit members in ascending ID order; this pins
// that no pass depends on an unordered iteration.
func TestCompileFingerprintsRepeat(t *testing.T) {
	const repeats = 5
	for _, w := range workload.All() {
		p := w.Build(1)
		for _, l := range Levels {
			for _, th := range []int{64, DefaultThreshold} {
				opts := OptionsForLevel(l, th)
				want := MustCompile(p, opts).Program.Fingerprint()
				for i := 1; i < repeats; i++ {
					if got := MustCompile(p, opts).Program.Fingerprint(); got != want {
						t.Fatalf("%s %s@%d: compile %d fingerprint %x, first %x", w.Name, l, th, i+1, got, want)
					}
				}
			}
		}
	}
}

// compiledBench compiles one benchmark at the default configuration and
// returns the output program plus the contract it was compiled under.
func compiledBench(t *testing.T, name string) (*prog.Program, Contract) {
	t.Helper()
	b, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	res, err := Compile(b.Build(1), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res.Program, contractFor(phaseFinal, opts)
}

func TestMutationDroppedBoundaryRejected(t *testing.T) {
	p, c := compiledBench(t, "radix")
	// Drop the first non-entry boundary (flag and marker instruction) and the
	// verifier must name the function and block. Non-entry, because entry
	// boundaries are also checked structurally.
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			if !b.BoundaryAt || b.ID == f.Entry {
				continue
			}
			b.BoundaryAt = false
			if len(b.Insts) > 0 && b.Insts[0].Op == isa.OpBoundary {
				b.Insts = b.Insts[1:]
			}
			err := Check(p, c)
			if err == nil {
				t.Fatalf("verifier accepted func %s with boundary b%d dropped", f.Name, b.ID)
			}
			if !strings.Contains(err.Error(), f.Name) {
				t.Errorf("diagnostic does not name the function: %v", err)
			}
			t.Logf("diagnostic: %v", err)
			return
		}
	}
	t.Fatal("no non-entry boundary found to drop")
}

func TestMutationDeletedCheckpointRejected(t *testing.T) {
	p, c := compiledBench(t, "radix")
	if err := Check(p, c); err != nil {
		t.Fatalf("pristine program rejected: %v", err)
	}
	// Not every checkpoint is load-bearing under the verifier's tighter
	// liveness (insertion is deliberately more conservative), but deleting
	// checkpoints one at a time must trip the verifier on at least one.
	caught := 0
	total := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for i := 0; i < len(b.Insts); i++ {
				if b.Insts[i].Op != isa.OpCkpt {
					continue
				}
				total++
				save := b.Insts
				mut := append(append([]isa.Inst{}, b.Insts[:i]...), b.Insts[i+1:]...)
				b.Insts = mut
				if err := Check(p, c); err != nil {
					caught++
					if !strings.Contains(err.Error(), "func ") || !strings.Contains(err.Error(), "b") {
						t.Errorf("diagnostic lacks func/block context: %v", err)
					}
					if caught == 1 {
						t.Logf("diagnostic: %v", err)
					}
				}
				b.Insts = save
			}
		}
	}
	if total == 0 {
		t.Fatal("compiled benchmark has no checkpoints")
	}
	if caught == 0 {
		t.Fatalf("deleting any of %d checkpoints went undetected", total)
	}
	t.Logf("%d of %d checkpoint deletions caught", caught, total)
}

func TestMutationOversizedRegionRejected(t *testing.T) {
	p, c := compiledBench(t, "radix")
	// Shrink the contract threshold below what the program was compiled for:
	// some region must now overflow, and the diagnostic names it.
	c.Threshold = 1
	err := Check(p, c)
	if err == nil {
		t.Fatal("threshold-1 contract accepted a threshold-256 program")
	}
	if !strings.Contains(err.Error(), "threshold") || !strings.Contains(err.Error(), "func ") {
		t.Errorf("diagnostic lacks threshold/function context: %v", err)
	}
	t.Logf("diagnostic: %v", err)
}

// sliceBench finds a compiled benchmark carrying at least one recovery slice
// (pruning material exists by construction in the suite).
func sliceBench(t *testing.T) (*prog.Program, Contract, *prog.Block) {
	t.Helper()
	for _, b := range workload.All() {
		opts := DefaultOptions()
		res, err := Compile(b.Build(1), opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range res.Program.Funcs {
			for _, blk := range f.Blocks {
				if len(blk.RecoverySlices) > 0 {
					return res.Program, contractFor(phaseFinal, opts), blk
				}
			}
		}
	}
	t.Skip("no benchmark produces recovery slices at the default configuration")
	return nil, Contract{}, nil
}

func TestMutationCorruptedSliceRejected(t *testing.T) {
	p, c, blk := sliceBench(t)
	list := blk.RecoverySlices
	slice := list[0].Insts
	r := list[0].Reg
	mutate := func(what string, m []prog.RecoverySlice) {
		t.Helper()
		blk.RecoverySlices = m
		if err := Check(p, c); err == nil {
			t.Errorf("%s accepted", what)
		} else {
			t.Logf("%s: %v", what, err)
		}
		blk.RecoverySlices = list
	}
	withSlice := func(insts []isa.Inst) []prog.RecoverySlice {
		return append([]prog.RecoverySlice{{Reg: r, Insts: insts}}, list[1:]...)
	}

	// A slice that no longer ends by defining its register.
	bad := append([]isa.Inst{}, slice...)
	bad[len(bad)-1].Rd = bad[len(bad)-1].Rd + 1
	mutate("slice with wrong final def", withSlice(bad))

	mutate("empty recovery slice", withSlice(nil))

	// A non-re-executable instruction inside the slice.
	mutate("slice containing a load", withSlice(append([]isa.Inst{{Op: isa.OpLoad, Rd: r, Ra: 0}}, slice...)))

	// A slice instruction naming a register the machine does not have.
	mutate("slice register out of range", withSlice(append([]isa.Inst{{Op: isa.OpMovI, Rd: 200}}, slice...)))

	// The list must be strictly ascending: a repeated register breaks it.
	mutate("repeated slice register", append([]prog.RecoverySlice{list[0]}, list...))

	// Slices may only live on boundary blocks.
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			if b.BoundaryAt || b == blk {
				continue
			}
			b.RecoverySlices = list[:1]
			if err := Check(p, c); err == nil {
				t.Error("recovery slice on non-boundary block accepted")
			}
			b.RecoverySlices = nil
			return
		}
	}
}

func TestMutationMisplacedBoundaryInstRejected(t *testing.T) {
	p, c := compiledBench(t, "radix")
	// An OpBoundary in a non-boundary block violates the materialized
	// contract.
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			if b.BoundaryAt || len(b.Insts) == 0 {
				continue
			}
			b.Insts = append([]isa.Inst{{Op: isa.OpBoundary}}, b.Insts...)
			err := Check(p, c)
			if err == nil {
				t.Fatal("stray OpBoundary accepted")
			}
			t.Logf("diagnostic: %v", err)
			return
		}
	}
}

func TestVerifyAfterSelectors(t *testing.T) {
	b, _ := workload.ByName("radix")
	p := b.Build(1)

	for _, va := range append([]string{"", VerifyAfterAll}, AllPassNames...) {
		opts := DefaultOptions()
		opts.VerifyAfter = va
		switch err := validateVerifyAfter(opts); {
		case va == PassInline:
			// Inlining is off in the default pipeline: selecting it must be
			// rejected as not-in-this-pipeline, not silently ignored.
			if err == nil || !strings.Contains(err.Error(), "not in this pipeline") {
				t.Errorf("VerifyAfter=%q: want not-in-pipeline error, got %v", va, err)
			}
		case err != nil:
			t.Errorf("VerifyAfter=%q rejected: %v", va, err)
		default:
			if _, err := Compile(p, opts); err != nil {
				t.Errorf("compile with VerifyAfter=%q: %v", va, err)
			}
		}
	}

	opts := DefaultOptions()
	opts.VerifyAfter = "nonsense"
	if _, err := Compile(p, opts); err == nil || !strings.Contains(err.Error(), "unknown pass") {
		t.Errorf("unknown VerifyAfter selector: got %v", err)
	}
}

func TestPassStatsPopulated(t *testing.T) {
	b, _ := workload.ByName("radix")
	var fired []string
	res, err := CompileWithHooks(b.Build(1), DefaultOptions(), Hooks{AfterPass: func(pass string, _ *prog.Program) {
		fired = append(fired, pass)
	}})
	if err != nil {
		t.Fatal(err)
	}
	want := PassNames(DefaultOptions())
	if len(res.Stats.Passes) != len(want) {
		t.Fatalf("got %d pass stats, want %d (%v)", len(res.Stats.Passes), len(want), want)
	}
	for i, ps := range res.Stats.Passes {
		if ps.Name != want[i] {
			t.Errorf("pass %d: got %q, want %q", i, ps.Name, want[i])
		}
	}
	// Every enabled pass runs exactly once.
	if fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Errorf("AfterPass fired for %v, want %v", fired, want)
	}
}

func TestCheckZeroContractOnRawProgram(t *testing.T) {
	// The zero contract (structure + canonical form) accepts a canonicalized
	// but uncompiled program and rejects a structurally broken one.
	b, _ := workload.ByName("radix")
	p := b.Build(1)
	canonicalize(p)
	if err := Check(p, Contract{}); err != nil {
		t.Fatalf("canonical raw program rejected: %v", err)
	}
}
