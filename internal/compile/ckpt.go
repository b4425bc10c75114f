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
//	callNeed(callee, site); finally
//	needIn(b) = need ∪ (LiveIn(b) if b is a boundary)
//
// where retNeed(f) is the union over f's call sites of the registers live
// after the call (an interprocedural summary computed to fixpoint), and
// callNeed = LiveOut(after the call) ∪ mayRead(callee) with mayRead the
// transitive may-read register summary of the callee. Thread entry functions
// have retNeed = ∅ (nothing runs after Halt).
type ckptContext struct {
	p    *prog.Program
	cfgs []*analysis.CFG
	live []*analysis.Liveness
	// mayRead[f] = registers possibly read by f or its transitive callees.
	mayRead []analysis.RegSet
	// retNeed[f] = registers that must have fresh slots when f returns.
	retNeed []analysis.RegSet
}

func newCkptContext(p *prog.Program) *ckptContext {
	cc := &ckptContext{p: p}
	cc.cfgs = make([]*analysis.CFG, len(p.Funcs))
	cc.live = make([]*analysis.Liveness, len(p.Funcs))
	for i, f := range p.Funcs {
		cc.cfgs[i] = analysis.BuildCFG(f)
		cc.live[i] = analysis.ComputeLiveness(cc.cfgs[i])
	}
	cc.computeMayRead()
	cc.computeRetNeed()
	return cc
}

// computeMayRead computes the transitive may-read register summary per
// function (fixpoint over the call graph; handles recursion).
func (cc *ckptContext) computeMayRead() {
	p := cc.p
	cc.mayRead = make([]analysis.RegSet, len(p.Funcs))
	calls := make([][]int, len(p.Funcs))
	var uses []isa.Reg
	for i, f := range p.Funcs {
		var s analysis.RegSet
		for _, b := range f.Blocks {
			for j := range b.Insts {
				in := &b.Insts[j]
				uses = in.Uses(uses[:0])
				for _, r := range uses {
					s.Add(r)
				}
				if in.Op == isa.OpCall {
					calls[i] = append(calls[i], int(in.Callee))
				}
			}
		}
		cc.mayRead[i] = s
	}
	for changed := true; changed; {
		changed = false
		for i := range p.Funcs {
			s := cc.mayRead[i]
			for _, c := range calls[i] {
				s = s.Union(cc.mayRead[c])
			}
			if s != cc.mayRead[i] {
				cc.mayRead[i] = s
				changed = true
			}
		}
	}
}

// computeRetNeed computes, for every function, the union over its call sites
// of registers live at the return site — what callers will read after the
// callee returns. Unreferenced functions (thread entries) get the empty set.
func (cc *ckptContext) computeRetNeed() {
	p := cc.p
	cc.retNeed = make([]analysis.RegSet, len(p.Funcs))
	for changed := true; changed; {
		changed = false
		for fi, f := range p.Funcs {
			for _, b := range f.Blocks {
				for j := range b.Insts {
					in := &b.Insts[j]
					if in.Op != isa.OpCall {
						continue
					}
					// Registers live after the call in this caller: the
					// return site's live-in, plus whatever this caller
					// itself must keep fresh for its own return.
					rs := p.RetSites[in.Imm]
					after := cc.live[fi].LiveAt(f, rs.Block, rs.Index)
					after = after.Union(cc.retNeed[fi])
					callee := int(in.Callee)
					if u := cc.retNeed[callee].Union(after); u != cc.retNeed[callee] {
						cc.retNeed[callee] = u
						changed = true
					}
				}
			}
		}
	}
}

// callNeed returns the registers that must have fresh checkpoint slots at a
// call to callee from the given return site: everything the callee (or its
// callees) may read, plus everything live after the call.
func (cc *ckptContext) callNeed(callerFunc int, callee int, site prog.RetSite) analysis.RegSet {
	f := cc.p.Funcs[callerFunc]
	after := cc.live[callerFunc].LiveAt(f, site.Block, site.Index)
	need := cc.mayRead[callee].Union(after).Union(cc.retNeed[callerFunc])
	// SP is saved/restored through the in-memory call protocol itself; its
	// checkpoint is maintained like any other register, so no exclusion.
	return need
}

// insertCheckpoints runs the need analysis over f and inserts OpCkpt
// instructions. Returns the number of checkpoint stores inserted.
func insertCheckpoints(p *prog.Program, fi int, cc *ckptContext) int {
	f := p.Funcs[fi]
	cfg := cc.cfgs[fi]
	lv := cc.live[fi]

	needIn := make([]analysis.RegSet, len(f.Blocks))
	needOut := make([]analysis.RegSet, len(f.Blocks))

	// walk runs the need transfer backward through b from out and returns
	// the need at b's start (before the boundary term). Each def of a needed
	// register is a last def: place, when set, receives its index.
	walk := func(b *prog.Block, out analysis.RegSet, place func(i int, r isa.Reg)) analysis.RegSet {
		need := out
		for i := len(b.Insts) - 1; i >= 0; i-- {
			in := &b.Insts[i]
			if in.Op == isa.OpCall {
				need = need.Union(cc.callNeed(fi, int(in.Callee), p.RetSites[in.Imm]))
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
			for _, s := range cfg.Succ[id] {
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
	// carved once; the second fills it back to front, as the indexes arrive
	// in descending order.
	inserted := 0
	for _, id := range cfg.RPO {
		b := f.Blocks[id]
		n := 0
		walk(b, needOut[id], func(int, isa.Reg) { n++ })
		if n == 0 {
			continue
		}
		insts := f.NewInsts(len(b.Insts) + n)
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
func ckptEstimate(cfg *analysis.CFG, lv *analysis.Liveness) func(*prog.Block) int {
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
