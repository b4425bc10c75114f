package compile

import (
	"fmt"
	"math/bits"

	"capri/internal/analysis"
	"capri/internal/isa"
	"capri/internal/prog"
)

// The semantic region verifier: an independent checker for the Capri
// contract the compiled program must uphold for whole-system persistence to
// be sound (DESIGN.md invariants 3–5), not just structural well-formedness.
// It is runnable after any pass (capricc -verify-after), and the pass manager
// always runs it on the final program.
//
// The interesting part is checkpoint coverage. Instead of trusting the
// insertion pass's own dataflow, the verifier runs the *forward* dual: a
// register's checkpoint slot is "stale" once the register is redefined and
// "fresh" again at its next OpCkpt. At every region boundary, every register
// that some path after the boundary actually reads before writing must be
// fresh — or reconstructible by that boundary's recovery slice from fresh
// leaves. The analysis is interprocedural: calls inject the callee's
// stale-at-return summary (computed to fixpoint over the call graph), and a
// function's own returns must leave nothing stale that any caller
// continuation reads (the retNeed summary). Function entries seed with the
// empty stale set: callers checkpoint everything a callee may read before
// the call, which the caller-side checks enforce.
//
// "Actually reads" is deliberately tighter than plain liveness: plain
// liveness treats every register as live at a Ret (the callee-saves-nothing
// contract), which is the right conservatism for *inserting* checkpoints but
// would flag scratch registers a callee clobbers and nobody reads. The
// verifier therefore uses ComputeLivenessWithRet with the function's retNeed
// summary at returns and callee may-read summaries at calls.

// Contract describes which parts of the Capri compilation contract a program
// is expected to satisfy at a given point in the pipeline. The zero value
// checks structure and canonical form only.
type Contract struct {
	// Threshold is the region store budget, checked when Boundaries is set.
	Threshold int
	// Boundaries requires region coverage: every mandatory boundary block
	// (function entry, loop headers, sync blocks and their successors,
	// return sites) is flagged, and no path through a region exceeds
	// Threshold store-class instructions (checkpoint stores included).
	Boundaries bool
	// Checkpoints requires checkpoint coverage of live-outs at every
	// boundary and return, plus recovery-slice well-formedness.
	Checkpoints bool
	// Materialized requires an OpBoundary instruction at index 0 of every
	// boundary block and nowhere else.
	Materialized bool
}

// Check runs the semantic region verifier over p against the contract.
// Diagnostics name the offending function and block.
func Check(p *prog.Program, c Contract) error {
	var a analysis.Arena
	return check(&a, p, c)
}

// check is Check with its analyses carved from a; the pipeline passes its
// compile's arena. The checks only read p, so they share one CFG per
// function.
func check(a *analysis.Arena, p *prog.Program, c Contract) error {
	if err := p.Verify(); err != nil {
		return fmt.Errorf("verify: structure: %w", err)
	}
	if err := checkCanonical(p); err != nil {
		return err
	}
	if c.Materialized {
		if err := checkMaterialized(p); err != nil {
			return err
		}
	}
	if !c.Boundaries && !c.Checkpoints {
		return nil
	}
	cfgs := buildCFGs(a, p)
	if c.Boundaries {
		if err := checkBoundaryCoverage(p, cfgs); err != nil {
			return err
		}
		if err := checkThreshold(a, cfgs, c.Threshold); err != nil {
			return fmt.Errorf("verify: %w", err)
		}
	}
	if c.Checkpoints {
		if err := checkCheckpointCoverage(a, p, cfgs); err != nil {
			return err
		}
	}
	return nil
}

// buildCFGs builds the CFG of every function of p in a.
func buildCFGs(a *analysis.Arena, p *prog.Program) []*analysis.CFG {
	cfgs := a.CFGs(len(p.Funcs))
	for i, f := range p.Funcs {
		cfgs[i] = analysis.BuildCFG(a, f)
	}
	return cfgs
}

// checkCanonical verifies canonical form: every synchronization instruction
// sits alone in its block (after an optional materialized boundary) and every
// return site is at a block start.
func checkCanonical(p *prog.Program) error {
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			base := 0
			if len(b.Insts) > 0 && b.Insts[0].Op == isa.OpBoundary {
				base = 1
			}
			for i := base; i < len(b.Insts); i++ {
				in := &b.Insts[i]
				if !in.IsMandatoryBoundary() || in.IsTerminator() {
					continue
				}
				if i != base {
					return fmt.Errorf("verify: func %s: b%d: sync %s at index %d, not at block start", f.Name, b.ID, in, i)
				}
				// After the sync only its checkpoint stores (of the value the
				// sync defines) and the terminator may follow.
				for j := i + 1; j < len(b.Insts); j++ {
					if b.Insts[j].Op == isa.OpCkpt || b.Insts[j].IsTerminator() {
						continue
					}
					return fmt.Errorf("verify: func %s: b%d: sync %s not alone in its block", f.Name, b.ID, in)
				}
			}
		}
	}
	for _, rs := range p.RetSites {
		if rs.Index != 0 {
			return fmt.Errorf("verify: func %s: return site b%d:%d not at a block start",
				p.Funcs[rs.Func].Name, rs.Block, rs.Index)
		}
	}
	return nil
}

// checkMaterialized verifies that OpBoundary instructions exactly mirror the
// BoundaryAt flags: index 0 of every boundary block, nowhere else.
func checkMaterialized(p *prog.Program) error {
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			if b.BoundaryAt && (len(b.Insts) == 0 || b.Insts[0].Op != isa.OpBoundary) {
				return fmt.Errorf("verify: func %s: boundary block b%d does not start with an OpBoundary instruction", f.Name, b.ID)
			}
			for i := range b.Insts {
				if b.Insts[i].Op != isa.OpBoundary {
					continue
				}
				if i != 0 {
					return fmt.Errorf("verify: func %s: b%d: OpBoundary mid-block at index %d", f.Name, b.ID, i)
				}
				if !b.BoundaryAt {
					return fmt.Errorf("verify: func %s: b%d: OpBoundary in a non-boundary block", f.Name, b.ID)
				}
			}
		}
	}
	return nil
}

// checkBoundaryCoverage verifies that every mandatory region entry carries a
// boundary: function entries, loop headers, sync blocks and their
// successors, and return-site blocks (paper §4.1).
func checkBoundaryCoverage(p *prog.Program, cfgs []*analysis.CFG) error {
	for fi, f := range p.Funcs {
		mand := mandatoryBoundaries(p, f, cfgs[fi])
		for id := mand.Next(0); id >= 0; id = mand.Next(id + 1) {
			if !f.Blocks[id].BoundaryAt {
				return fmt.Errorf("verify: func %s: b%d must carry a region boundary (mandatory region entry)", f.Name, id)
			}
		}
	}
	return nil
}

// sliceLeaves returns the registers a recovery slice reads from checkpoint
// slots: used before any slice instruction defines them.
func sliceLeaves(slice []isa.Inst) analysis.RegSet {
	var defined, leaves analysis.RegSet
	var uses []isa.Reg
	for i := range slice {
		uses = slice[i].Uses(uses[:0])
		for _, u := range uses {
			if !defined.Has(u) {
				leaves.Add(u)
			}
		}
		if d, ok := slice[i].Def(); ok {
			defined.Add(d)
		}
	}
	return leaves
}

// staleSets holds the converged forward stale-slot dataflow.
type staleSets struct {
	// in and out hold the sets stale at block entry and exit, function fi's
	// blocks at [at[fi], at[fi+1]).
	in, out []analysis.RegSet
	at      []int
	ret     []analysis.RegSet // stale at return, per function (callee summary)
}

// fn returns function fi's per-block stale sets at entry and exit.
func (st *staleSets) fn(fi int) (in, out []analysis.RegSet) {
	lo, hi := st.at[fi], st.at[fi+1]
	return st.in[lo:hi:hi], st.out[lo:hi:hi]
}

// staleTransfer pushes a stale set through one block: defs make a register
// stale, checkpoints make it fresh, calls inject the callee's stale-at-return
// summary.
func staleTransfer(b *prog.Block, s analysis.RegSet, ret []analysis.RegSet) analysis.RegSet {
	for i := range b.Insts {
		in := &b.Insts[i]
		switch {
		case in.Op == isa.OpCkpt:
			s.Remove(in.Ra)
		case in.Op == isa.OpCall:
			s = s.Union(ret[in.Callee])
		default:
			if d, ok := in.Def(); ok {
				s.Add(d)
			}
		}
	}
	return s
}

// staleAnalysis runs the interprocedural stale-slot dataflow to fixpoint.
// Entry seed is the empty set: thread entries start with registers and
// checkpoint slots both zeroed, and non-entry functions rely on their
// callers having checkpointed everything the callee may read (which the
// caller-side boundary checks enforce).
func staleAnalysis(a *analysis.Arena, p *prog.Program, cfgs []*analysis.CFG) staleSets {
	st := staleSets{at: a.Ints(len(p.Funcs) + 1), ret: a.RegSets(len(p.Funcs))}
	for fi, f := range p.Funcs {
		st.at[fi+1] = st.at[fi] + len(f.Blocks)
	}
	sets := a.RegSets(2 * st.at[len(p.Funcs)])
	st.in, st.out = sets[:len(sets)/2], sets[len(sets)/2:]
	for changed := true; changed; {
		changed = false
		for fi, f := range p.Funcs {
			cfg := cfgs[fi]
			sin, sout := st.fn(fi)
			for _, id := range cfg.RPO {
				var in analysis.RegSet
				for _, pr := range cfg.Pred(id) {
					in = in.Union(sout[pr])
				}
				out := staleTransfer(f.Blocks[id], in, st.ret)
				if in != sin[id] || out != sout[id] {
					sin[id], sout[id] = in, out
					changed = true
				}
			}
			sr := st.ret[fi]
			for _, b := range f.Blocks {
				if t, ok := b.Terminator(); ok && t.Op == isa.OpRet {
					sr = sr.Union(sout[b.ID])
				}
			}
			if sr != st.ret[fi] {
				st.ret[fi] = sr
				changed = true
			}
		}
	}
	return st
}

// verifierLiveness computes the verifier's read-before-write liveness for
// every function, together with the matching return-need summary vRet
// (registers some caller continuation actually reads after the callee
// returns). The insertion pass's summaries are deliberately looser in ways
// that would make them wrong here: callSummary's reads are flow-insensitive
// (they include registers a callee reads only *after* defining them itself),
// and retNeed inherits plain liveness's all-registers-live-at-Ret
// conservatism from callers of callers.
//
// Context sensitivity matters: a call site must use the callee's pure
// read-before-write entry summary (entryRead, computed with nothing live at
// returns), NOT its live-at-entry set under vRet — the latter smuggles a
// live-through component from *other* call sites into every site. Reads in
// this caller's own continuation instead flow past the call naturally in the
// caller's backward dataflow, since calls fall through mid-block and define
// nothing. Both summaries are monotone from empty seeds, so the mutual
// fixpoint converges.
func verifierLiveness(a *analysis.Arena, p *prog.Program, cfgs []*analysis.CFG) ([]*analysis.Liveness, []analysis.RegSet) {
	entryRead, vRet := a.RegSets(len(p.Funcs)), a.RegSets(len(p.Funcs))
	lv := a.Livenesses(len(p.Funcs))
	for changed := true; changed; {
		changed = false
		for fi, f := range p.Funcs {
			if e := analysis.ComputeLivenessWithRet(cfgs[fi], entryRead, 0).LiveIn[f.Entry]; e != entryRead[fi] {
				entryRead[fi] = e
				changed = true
			}
		}
		for fi := range p.Funcs {
			lv[fi] = analysis.ComputeLivenessWithRet(cfgs[fi], entryRead, vRet[fi])
		}
		for fi, f := range p.Funcs {
			for _, b := range f.Blocks {
				for i := range b.Insts {
					in := &b.Insts[i]
					if in.Op != isa.OpCall {
						continue
					}
					rs := p.RetSites[in.Imm]
					after := lv[fi].LiveAt(f, rs.Block, rs.Index)
					callee := int(in.Callee)
					if u := vRet[callee].Union(after); u != vRet[callee] {
						vRet[callee] = u
						changed = true
					}
				}
			}
		}
	}
	return lv, vRet
}

// checkCheckpointCoverage verifies the core §4.2 contract: at every region
// boundary, every register actually read on some path after the boundary
// before being rewritten is either fresh in its checkpoint slot or
// reconstructible by the boundary's recovery slice from fresh leaves; and no
// function returns with a stale slot its callers' continuations read.
func checkCheckpointCoverage(a *analysis.Arena, p *prog.Program, cfgs []*analysis.CFG) error {
	st := staleAnalysis(a, p, cfgs)
	lv, vRet := verifierLiveness(a, p, cfgs)
	for fi, f := range p.Funcs {
		vlv := lv[fi]
		sin, sout := st.fn(fi)
		for _, b := range f.Blocks {
			if b.BoundaryAt {
				stale := sin[b.ID]
				for live := stale.Intersect(vlv.LiveIn[b.ID]); live != 0; live &= live - 1 {
					r := isa.Reg(bits.TrailingZeros32(uint32(live)))
					slice := b.Slice(r)
					if slice == nil {
						return fmt.Errorf("verify: func %s: boundary b%d: live register r%d may hold a stale checkpoint slot (no covering checkpoint or recovery slice)",
							f.Name, b.ID, r)
					}
					if bad := sliceLeaves(slice).Intersect(stale); bad != 0 {
						return fmt.Errorf("verify: func %s: boundary b%d: recovery slice for r%d reads stale leaf slots %v",
							f.Name, b.ID, r, bad.Regs())
					}
				}
			}
			if t, ok := b.Terminator(); ok && t.Op == isa.OpRet {
				if bad := sout[b.ID].Intersect(vRet[fi]); bad != 0 {
					return fmt.Errorf("verify: func %s: b%d: returns with stale slots %v that a caller continuation reads",
						f.Name, b.ID, bad.Regs())
				}
			}
		}
	}
	return nil
}
