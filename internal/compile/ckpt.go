package compile

import (
	"capri/internal/analysis"
	"capri/internal/isa"
	"capri/internal/prog"
)

// Checkpoint insertion (paper §4.2).
//
// Soundness contract with the architecture and recovery protocol: at the
// moment any region boundary β commits, the NVM checkpoint array slot of
// every register that will be *read* after β before being written again must
// hold that register's current value. Recovery reloads all slots, re-runs the
// boundary block's recovery slices (see prune.go), and resumes at β; only
// registers satisfying the contract are ever consulted, so stale slots of
// dead registers are harmless.
//
// The pass runs a backward "need" dataflow per function:
//
//	needOut(b) = ∪ needIn(s) over CFG successors s
//	           ∪ retNeed(f)        if b ends in Ret
//	walk b backward from needOut: a def of r with r ∈ need receives a
//	checkpoint immediately after it (the paper's "last instruction that
//	updates the register") and removes r from need; a call site adds
//	callNeed; finally
//	needIn(b) = need ∪ (LiveIn(b) if b is a boundary)
//
// where retNeed(f) is the union over f's call sites of the registers live
// after the call (an interprocedural summary computed to fixpoint), and
// callNeed = LiveOut(after the call) ∪ reads(callee) ∪ retNeed(f) with reads
// the transitive may-read register summary of the callee (callSummary).
// Thread entry functions have retNeed = ∅ (nothing runs after Halt).
type ckptContext struct {
	cfgs  []*analysis.CFG
	live  []*analysis.Liveness
	calls callSummary
	// retNeed[f] = registers that must have fresh slots when f returns.
	retNeed []analysis.RegSet
}

// newCkptContext builds the per-function CFGs, liveness and return-need
// summary, carved from a; retNeed reaches its fixpoint over the sites of cs.
func newCkptContext(a *analysis.Arena, p *prog.Program, cs callSummary) *ckptContext {
	n := len(p.Funcs)
	cc := &ckptContext{cfgs: buildCFGs(a, p), live: a.Livenesses(n), calls: cs, retNeed: a.RegSets(n)}
	for i, cfg := range cc.cfgs {
		cc.live[i] = analysis.ComputeLiveness(cfg)
	}
	for changed := true; changed; {
		changed = false
		for fi, f := range p.Funcs {
			for k := cs.at[fi]; k < cs.at[fi+1]; k++ {
				// Registers live after the call in this caller: the return
				// site's live-in, plus whatever this caller itself must keep
				// fresh for its own return.
				rs := p.RetSites[cs.token[k]]
				after := cc.live[fi].LiveAt(f, rs.Block, rs.Index).Union(cc.retNeed[fi])
				if c := cs.callee[k]; cc.retNeed[c].Union(after) != cc.retNeed[c] {
					cc.retNeed[c] = cc.retNeed[c].Union(after)
					changed = true
				}
			}
		}
	}
	return cc
}

// callSummary is what the calls of a program do to registers: each
// function's call sites, and the registers each function or its transitive
// callees may read and may write. Checkpoint insertion, pruning and LICM
// all read it; summarizeCalls builds it.
type callSummary struct {
	// Function f's call sites are callee[at[f]:at[f+1]], in block and
	// instruction order, with their return-site tokens (indexes into
	// Program.RetSites) at the same positions of token.
	at, callee, token []int
	// reads[f] and writes[f] are the registers f or its transitive callees
	// may read and may write.
	reads, writes []analysis.RegSet
}

// summarizeCalls builds the call summary of p from one scan of its
// instructions and one fixpoint over the call graph (which handles
// recursion), carved from a. Every call has its own return-site token, so
// the token table bounds the site count.
func summarizeCalls(a *analysis.Arena, p *prog.Program) callSummary {
	nf, nt := len(p.Funcs), len(p.RetSites)
	ints, sets := a.Ints(nf+1+2*nt), a.RegSets(2*nf)
	cs := callSummary{
		at:     ints[: nf+1 : nf+1],
		callee: ints[nf+1 : nf+1 : nf+1+nt],
		token:  ints[nf+1+nt : nf+1+nt],
		reads:  sets[:nf:nf],
		writes: sets[nf:],
	}
	var ops [3]isa.Reg
	for i, f := range p.Funcs {
		for _, b := range f.Blocks {
			for j := range b.Insts {
				in := &b.Insts[j]
				for _, r := range in.Uses(ops[:0]) {
					cs.reads[i].Add(r)
				}
				if d, ok := in.Def(); ok {
					cs.writes[i].Add(d)
				}
				if in.Op == isa.OpCall {
					cs.callee = append(cs.callee, int(in.Callee))
					cs.token = append(cs.token, int(in.Imm))
				}
			}
		}
		cs.at[i+1] = len(cs.callee)
	}
	for changed := true; changed; {
		changed = false
		for i := range p.Funcs {
			r, w := cs.reads[i], cs.writes[i]
			for _, c := range cs.callee[cs.at[i]:cs.at[i+1]] {
				r, w = r.Union(cs.reads[c]), w.Union(cs.writes[c])
			}
			if r != cs.reads[i] || w != cs.writes[i] {
				cs.reads[i], cs.writes[i] = r, w
				changed = true
			}
		}
	}
	return cs
}

// insertCheckpoints runs the need analysis over f and inserts OpCkpt
// instructions. Returns the number of checkpoint stores inserted.
func insertCheckpoints(a *analysis.Arena, p *prog.Program, fi int, cc *ckptContext) int {
	f := p.Funcs[fi]
	cfg := cc.cfgs[fi]
	lv := cc.live[fi]

	sets := a.RegSets(2 * len(f.Blocks))
	needIn, needOut := sets[:len(f.Blocks)], sets[len(f.Blocks):]

	// walk runs the need transfer backward through b from out and returns
	// the need at b's start (before the boundary term). Each def of a needed
	// register is a last def: place, when set, receives its index.
	walk := func(b *prog.Block, out analysis.RegSet, place func(i int, r isa.Reg)) analysis.RegSet {
		need := out
		for i := len(b.Insts) - 1; i >= 0; i-- {
			in := &b.Insts[i]
			if in.Op == isa.OpCall {
				// callNeed. SP is saved and restored through the in-memory
				// call protocol itself; its checkpoint is maintained like
				// any other register, so no exclusion.
				rs := p.RetSites[in.Imm]
				need = need.Union(cc.calls.reads[in.Callee]).Union(lv.LiveAt(f, rs.Block, rs.Index)).Union(cc.retNeed[fi])
			}
			if d, ok := in.Def(); ok && need.Has(d) {
				if place != nil {
					place(i, d)
				}
				need.Remove(d)
			}
		}
		return need
	}

	for changed := true; changed; {
		changed = false
		for i := len(cfg.RPO) - 1; i >= 0; i-- {
			id := cfg.RPO[i]
			b := f.Blocks[id]
			var out analysis.RegSet
			if t, ok := b.Terminator(); ok && t.Op == isa.OpRet {
				out = cc.retNeed[fi]
			}
			for _, s := range cfg.Succ(id) {
				out = out.Union(needIn[s])
			}
			in := walk(b, out, nil)
			if b.BoundaryAt {
				in = in.Union(lv.LiveIn[id])
			}
			if in != needIn[id] || out != needOut[id] {
				needIn[id], needOut[id] = in, out
				changed = true
			}
		}
	}

	// Placement: walk each block backward with the converged needOut,
	// splicing a checkpoint immediately after each last-def of a needed
	// register. A first walk counts the splices so the block's new list is
	// carved once, or reuses the block's own array where stripped
	// checkpoints or a split left room; the second fills it back to front,
	// as the indexes arrive in descending order, so no instruction is
	// overwritten before it is moved.
	inserted := 0
	for _, id := range cfg.RPO {
		b := f.Blocks[id]
		n := 0
		walk(b, needOut[id], func(int, isa.Reg) { n++ })
		if n == 0 {
			continue
		}
		var insts []isa.Inst
		if m := len(b.Insts) + n; cap(b.Insts) >= m {
			insts = b.Insts[:m]
		} else {
			insts = f.NewInsts(m)
		}
		end, src := len(insts), len(b.Insts) // insts[end:] and b.Insts[src:] are placed
		walk(b, needOut[id], func(i int, r isa.Reg) {
			tail := b.Insts[i+1 : src]
			end -= len(tail)
			copy(insts[end:], tail)
			end--
			insts[end] = isa.Inst{Op: isa.OpCkpt, Ra: r}
			src = i + 1
		})
		copy(insts, b.Insts[:src])
		b.Insts = insts
		inserted += n
	}
	return inserted
}

// ckptEstimate returns a per-block estimate of checkpoint stores for region
// formation, before real checkpoints exist: the number of registers the block
// defines that are live out of it. This over-approximates the final count the
// same way the paper's per-initial-region estimate does.
func ckptEstimate(lv *analysis.Liveness) func(*prog.Block) int {
	return func(b *prog.Block) int {
		if b.ID >= len(lv.Def) {
			// Blocks created by splitting after the analysis ran: fall back
			// to a direct def count.
			var seen analysis.RegSet
			for i := range b.Insts {
				if d, ok := b.Insts[i].Def(); ok {
					seen.Add(d)
				}
			}
			return seen.Count()
		}
		return (lv.Def[b.ID] & lv.LiveOut[b.ID]).Count()
	}
}
