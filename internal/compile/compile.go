package compile

import (
	"fmt"

	"capri/internal/isa"
	"capri/internal/prog"
)

// Stats reports what the compiler did and the static region shape of the
// output — the raw material for the paper's Figures 10 and 11.
type Stats struct {
	// Regions is the number of static regions formed (boundary blocks).
	Regions int
	// CkptsInserted counts checkpoint stores inserted by §4.2.
	CkptsInserted int
	// CkptsPruned counts checkpoints removed by optimal pruning (§4.4.1).
	CkptsPruned int
	// CkptsHoisted counts def+checkpoint pairs LICM moved out of loops
	// (§4.4.2).
	CkptsHoisted int
	// LoopsUnrolled / UnrollCopies report speculative unrolling activity
	// (§4.3).
	LoopsUnrolled int
	UnrollCopies  int
	// Static program shape after compilation.
	Static prog.StaticStats
	// Passes holds per-pass action counts and wall times in pipeline order
	// (see PassStat); the source of capricc -stats-json.
	Passes []PassStat
}

// Result is a compiled program plus its statistics.
type Result struct {
	Program *prog.Program
	Options Options
	Stats   Stats
}

// autoMaxUnroll is the automatic MaxUnroll cap for a threshold:
// max(2, min(16, threshold/40)). Larger proxy buffers admit longer regions,
// so the cap scales with the threshold; the divisor 40 makes the default
// threshold 256 admit 6x unrolling while 1024 saturates the cap.
func autoMaxUnroll(threshold int) int {
	k := threshold / 40
	if k < 2 {
		k = 2
	}
	if k > 16 {
		k = 16
	}
	return k
}

// Compile runs the Capri pass pipeline over a copy of p:
//
//	canonicalize → speculative unrolling → region formation →
//	checkpoint insertion → checkpoint pruning → checkpoint LICM →
//	boundary materialization
//
// The input program is not modified. The pass manager verifies structure
// after every pass and checks the full semantic region contract (threshold,
// boundary coverage, checkpoint coverage, recovery-slice well-formedness; see
// Check) on the final program; Options.VerifyAfter additionally runs the
// semantic verifier after intermediate passes. Compile returns an error if
// any check fails.
func Compile(p *prog.Program, opts Options) (*Result, error) {
	return CompileWithHooks(p, opts, Hooks{})
}

// CompileWithHooks is Compile with pass-manager observation hooks attached
// (e.g. capricc -dump-after). Hooks never affect the compiled output.
func CompileWithHooks(p *prog.Program, opts Options, hooks Hooks) (*Result, error) {
	if opts.Threshold <= 0 {
		return nil, fmt.Errorf("compile: threshold must be positive, got %d", opts.Threshold)
	}
	if err := validateVerifyAfter(opts); err != nil {
		return nil, err
	}
	if opts.MaxUnroll <= 0 {
		opts.MaxUnroll = autoMaxUnroll(opts.Threshold)
	}
	out := p.Clone()
	res := &Result{Program: out, Options: opts}
	if err := runPasses(&passes, out, opts, hooks, &res.Stats); err != nil {
		return nil, err
	}
	// The passes left superseded instruction lists in the slab chunks they
	// carved; a compiled program may be kept for a long time (crash targets),
	// so it keeps only its live instructions.
	out.Compact()
	res.Stats.Static = out.Stats()
	res.Stats.Regions = res.Stats.Static.Boundaries
	return res, nil
}

// validateVerifyAfter rejects a VerifyAfter selector that names no pass of
// this pipeline (see CheckPass).
func validateVerifyAfter(opts Options) error {
	if va := opts.VerifyAfter; va != "" && va != VerifyAfterAll {
		if err := CheckPass(va, opts); err != nil {
			return fmt.Errorf("compile: VerifyAfter: %w", err)
		}
	}
	return nil
}

// MustCompile is Compile for tests and examples where failure is a bug.
func MustCompile(p *prog.Program, opts Options) *Result {
	r, err := Compile(p, opts)
	if err != nil {
		panic(err)
	}
	return r
}

// stripCheckpoints removes all OpCkpt instructions and recovery slices (used
// between region-formation rounds so checkpoints are not double-inserted).
func stripCheckpoints(p *prog.Program) {
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			kept := b.Insts[:0]
			for i := range b.Insts {
				if b.Insts[i].Op != isa.OpCkpt {
					kept = append(kept, b.Insts[i])
				}
			}
			b.Insts = kept
			b.RecoverySlices = nil
		}
	}
}
