package compile

import (
	"fmt"
	"time"

	"capri/internal/analysis"
	"capri/internal/prog"
)

// The pass manager. The pipeline is one package-level table, passes, in
// the paper's §4 order; Options only filter it, so a compile builds no pass
// list. runPasses executes the enabled rows with uniform bookkeeping —
// per-pass wall time and action counts into Stats.Passes, structural
// verification after every pass, and the semantic region verifier
// (verify.go) after any pass selected by Options.VerifyAfter. Every enabled
// pass runs once. Region formation sizes regions with checkpoint estimates;
// checkpoint insertion owns the repair where the real checkpoints overflow a
// region (cutRegions, regions.go).

// Pass names, as accepted by Options.VerifyAfter and capricc's -verify-after
// / -dump-after flags.
const (
	PassCanonicalize = "canonicalize"
	PassInline       = "inline"
	PassUnroll       = "unroll"
	PassRegions      = "regions"
	PassCkpt         = "ckpt"
	PassPrune        = "prune"
	PassLICM         = "licm"
	PassMaterialize  = "materialize"
)

// AllPassNames lists every pass the compiler knows, in pipeline order.
var AllPassNames = []string{
	PassCanonicalize, PassInline, PassUnroll, PassRegions,
	PassCkpt, PassPrune, PassLICM, PassMaterialize,
}

// PassStat reports one pass's activity within a compile.
type PassStat struct {
	// Name is the pass name (see AllPassNames).
	Name string
	// Changed is the pass's action count: boundaries placed, checkpoints
	// inserted, checkpoints pruned, pairs hoisted, loops unrolled, calls
	// inlined, blocks split, boundaries materialized.
	Changed int
	// WallNS is the pass's wall time, in nanoseconds.
	WallNS int64
	// VerifyNS is the time spent verifying this pass's output (structural
	// check plus the semantic verifier when selected), in nanoseconds.
	VerifyNS int64
}

// Hooks observes the pass manager as it runs. Hooks are deliberately not part
// of Options: Options stays comparable (it is half of the compile-cache key),
// and observation must never change what the pipeline produces.
type Hooks struct {
	// AfterPass fires once after every pass, with the program in its
	// post-pass state. The program is the live working copy — observe, do
	// not mutate.
	AfterPass func(pass string, p *prog.Program)
}

// verifyPhase says how much of the Capri contract (verify.Contract) a pass's
// output is expected to satisfy.
type verifyPhase int

const (
	// phaseFront: canonical form only — regions are not formed yet.
	phaseFront verifyPhase = iota
	// phaseRegions: boundary coverage and the threshold invariant;
	// checkpoints do not exist yet.
	phaseRegions
	// phaseCkpt: phaseRegions plus checkpoint coverage when checkpoints are
	// enabled.
	phaseCkpt
	// phaseFinal: phaseCkpt plus materialized OpBoundary instructions.
	phaseFinal
)

// contractFor maps a pass's phase to the semantic contract its output must
// satisfy under the given options.
func contractFor(ph verifyPhase, opts Options) Contract {
	return Contract{
		Threshold:    opts.Threshold,
		Boundaries:   ph >= phaseRegions,
		Checkpoints:  ph >= phaseCkpt && opts.InsertCheckpoints,
		Materialized: ph == phaseFinal,
	}
}

// passCtx carries the mutable compile state through the pipeline.
type passCtx struct {
	p     *prog.Program
	opts  Options
	stats *Stats
	// a backs every analysis the compile builds: CFGs, dominators, loop
	// forests, liveness and the passes' per-function tables. It is never
	// reset, so no result is overwritten; it dies with the compile.
	a analysis.Arena
	// calls is the call summary prune and licm share, built by sharedCalls
	// on first use, after checkpoints are final. Both passes must see the
	// same summary, so it is not rebuilt between them.
	calls callSummary
}

// sharedCalls returns the call summary prune and licm share, building it on
// first use.
func (pc *passCtx) sharedCalls() callSummary {
	if pc.calls.at == nil {
		pc.calls = summarizeCalls(&pc.a, pc.p)
	}
	return pc.calls
}

// pass is one row of the pipeline table: run mutates pc.p and returns its
// action count; phase selects the semantic contract checked after it;
// enabled reports whether the options run it (nil: always).
type pass struct {
	name    string
	phase   verifyPhase
	enabled func(o Options) bool
	run     func(pc *passCtx) (changed int, err error)
}

// passes is the pipeline, in the paper's §4 order: canonicalize → inline →
// unroll → regions → ckpt → prune → licm → materialize. A compile runs the
// rows its Options enable.
var passes = [...]pass{
	{PassCanonicalize, phaseFront, nil, runCanonicalize},
	{PassInline, phaseFront, func(o Options) bool { return o.Inline && !o.NaiveRegions }, runInline},
	{PassUnroll, phaseFront, func(o Options) bool { return o.Unroll && !o.NaiveRegions }, runUnroll},
	{PassRegions, phaseRegions, nil, runRegions},
	{PassCkpt, phaseCkpt, func(o Options) bool { return o.InsertCheckpoints }, runCkpt},
	{PassPrune, phaseCkpt, func(o Options) bool { return o.Prune && o.InsertCheckpoints }, runPrune},
	{PassLICM, phaseCkpt, func(o Options) bool { return o.LICM && o.InsertCheckpoints }, runLICM},
	{PassMaterialize, phaseFinal, nil, runMaterialize},
}

// on reports whether ps runs under opts.
func (ps *pass) on(opts Options) bool { return ps.enabled == nil || ps.enabled(opts) }

func runCanonicalize(pc *passCtx) (int, error) {
	before := blockCount(pc.p)
	canonicalize(pc.p)
	return blockCount(pc.p) - before, nil
}

func runInline(pc *passCtx) (int, error) {
	pc.stats.CallsInlined = inlineCalls(pc.p, pc.opts.InlineMaxInsts)
	removeDeadFuncs(pc.p)
	return pc.stats.CallsInlined, nil
}

func runUnroll(pc *passCtx) (int, error) {
	us := unrollLoops(&pc.a, pc.p, pc.opts)
	pc.stats.LoopsUnrolled = us.LoopsUnrolled
	pc.stats.UnrollCopies = us.CopiesMade
	return us.LoopsUnrolled, nil
}

func runRegions(pc *passCtx) (int, error) {
	for _, f := range pc.p.Funcs {
		placeBoundaries(&pc.a, pc.p, f, pc.opts)
	}
	return boundaryCount(pc.p), nil
}

// runCkpt inserts checkpoints, then cuts every region they overflow and
// inserts them afresh, until no region needs a cut. Each cut adds a boundary
// and none is removed, so the loop ends. Rounds after the first carve from a
// fresh arena each, so a long repair holds one round's analyses at a time.
func runCkpt(pc *passCtx) (int, error) {
	for a := &pc.a; ; a = new(analysis.Arena) {
		stripCheckpoints(pc.p)
		cc := newCkptContext(a, pc.p, summarizeCalls(a, pc.p))
		pc.stats.CkptsInserted = 0
		for fi := range pc.p.Funcs {
			pc.stats.CkptsInserted += insertCheckpoints(a, pc.p, fi, cc)
		}
		if cut, err := cutRegions(a, pc.p, cc, pc.opts.Threshold); !cut || err != nil {
			return pc.stats.CkptsInserted, err
		}
	}
}

func runPrune(pc *passCtx) (int, error) {
	calls := pc.sharedCalls()
	sc := newPruneScratch(&pc.a, maxBlocks(pc.p))
	n := 0
	for _, f := range pc.p.Funcs {
		n += pruneCheckpoints(&pc.a, f, calls.reads, &sc)
	}
	pc.stats.CkptsPruned = n
	return n, nil
}

func runLICM(pc *passCtx) (int, error) {
	calls := pc.sharedCalls()
	n := 0
	for _, f := range pc.p.Funcs {
		n += licmCheckpoints(&pc.a, f, calls, pc.opts.Threshold)
	}
	pc.stats.CkptsHoisted = n
	return n, nil
}

func runMaterialize(pc *passCtx) (int, error) {
	for _, f := range pc.p.Funcs {
		materializeBoundaries(f)
	}
	return boundaryCount(pc.p), nil
}

// PassNames returns the names of the passes Compile would run for opts, in
// order. Useful for validating -verify-after/-dump-after style selectors.
func PassNames(opts Options) []string {
	var out []string
	for i := range passes {
		if passes[i].on(opts) {
			out = append(out, passes[i].name)
		}
	}
	return out
}

// runPasses executes the rows of table that opts enable over p (mutating
// it), recording per-pass stats into st in pipeline order. Compile passes
// the package table; a test may pass a copy with a row's run replaced.
// Verification between passes is uniform: the structural check runs after
// every pass; the semantic verifier runs after the passes selected by
// opts.VerifyAfter, and always after materialize — the pipeline's output
// contract is not optional.
func runPasses(table *[len(passes)]pass, p *prog.Program, opts Options, hooks Hooks, st *Stats) error {
	pc := &passCtx{p: p, opts: opts, stats: st}
	n := 0
	for i := range table {
		if table[i].on(opts) {
			n++
		}
	}
	// Every pass analyses every function about once, and the final verifier
	// once more.
	pc.a.Reserve(p, n+1)
	st.Passes = make([]PassStat, 0, n)
	for i := range table {
		if table[i].on(opts) {
			st.Passes = append(st.Passes, PassStat{Name: table[i].name})
			if err := runOne(pc, &table[i], &st.Passes[len(st.Passes)-1], hooks); err != nil {
				return err
			}
		}
	}
	return nil
}

// runOne executes a single pass: time it, record stats, structurally verify,
// fire hooks, and run the selected semantic checks.
func runOne(pc *passCtx, ps *pass, stat *PassStat, hooks Hooks) error {
	start := time.Now()
	changed, err := ps.run(pc)
	stat.Changed = changed
	stat.WallNS = time.Since(start).Nanoseconds()
	if err != nil {
		return fmt.Errorf("compile: %s: %w", ps.name, err)
	}
	start = time.Now()
	err = pc.p.Verify()
	stat.VerifyNS = time.Since(start).Nanoseconds()
	if err != nil {
		return fmt.Errorf("compile: after %s: %w", ps.name, err)
	}
	if hooks.AfterPass != nil {
		hooks.AfterPass(ps.name, pc.p)
	}
	return verifyAfter(pc, ps, stat)
}

// verifyAfter runs the semantic region verifier after ps when selected by
// Options.VerifyAfter ("all" or the pass name) or when ps closes the pipeline
// (phaseFinal: the output contract always holds or Compile fails).
func verifyAfter(pc *passCtx, ps *pass, stat *PassStat) error {
	va := pc.opts.VerifyAfter
	if !(va == VerifyAfterAll || va == ps.name || ps.phase == phaseFinal) {
		return nil
	}
	start := time.Now()
	err := check(&pc.a, pc.p, contractFor(ps.phase, pc.opts))
	stat.VerifyNS += time.Since(start).Nanoseconds()
	if err != nil {
		return fmt.Errorf("compile: after %s: %w", ps.name, err)
	}
	return nil
}

// blockCount counts basic blocks across the program.
func blockCount(p *prog.Program) int {
	n := 0
	for _, f := range p.Funcs {
		n += len(f.Blocks)
	}
	return n
}

// maxBlocks returns the block count of p's largest function.
func maxBlocks(p *prog.Program) int {
	n := 0
	for _, f := range p.Funcs {
		n = max(n, len(f.Blocks))
	}
	return n
}

// boundaryCount counts boundary blocks across the program.
func boundaryCount(p *prog.Program) int {
	n := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			if b.BoundaryAt {
				n++
			}
		}
	}
	return n
}
