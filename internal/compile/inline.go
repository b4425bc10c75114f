package compile

import (
	"capri/internal/isa"
	"capri/internal/prog"
)

// Function inlining — the region-lengthening direction the paper's §6.3
// leaves as future work ("devise a new algorithm to formulate regions with
// having more instructions"). Function entries and return sites are
// mandatory region boundaries, so call-dense code is stuck with short
// regions no matter the threshold; inlining small leaf callees removes both
// boundaries at once and lets region formation run through the former call.
//
// Disabled by default (Options.Inline) so the figure pipeline matches the
// paper's pass set; BenchmarkInlining quantifies the win on the call-bound
// benchmarks.
//
// A call site is inlined when the callee:
//   - contains no calls itself (leaf), so no token fix-ups cascade;
//   - has at most InlineMaxInsts instructions;
//   - does not need the in-memory return linkage for anything else (always
//     true for our lowering: OpRet is the only consumer).
//
// The transformation replaces `call G` with a branch to a copy of G's blocks
// whose Rets branch to the original return site. The caller's push/pop pair
// disappears with the call, keeping SP balanced.

// defaultInlineMax bounds inlined callee size when Options.InlineMaxInsts
// is zero.
const defaultInlineMax = 48

// inlineCalls inlines eligible call sites in every function of p and returns
// how many it inlined. The program must already be canonical (calls are
// last-before-terminator and return sites begin blocks).
func inlineCalls(p *prog.Program, maxInsts int) int {
	if maxInsts <= 0 {
		maxInsts = defaultInlineMax
	}
	n := 0
	for _, f := range p.Funcs {
		// Repeat until no eligible site remains (an inlined body cannot add
		// calls — only leaves are inlined — so this terminates).
		for inlineOneCall(p, f, maxInsts) {
			n++
		}
	}
	return n
}

// eligibleCallee reports whether g can be inlined.
func eligibleCallee(g *prog.Func, maxInsts int) bool {
	n := 0
	for _, b := range g.Blocks {
		n += len(b.Insts)
		for i := range b.Insts {
			if b.Insts[i].Op == isa.OpCall {
				return false // leaves only
			}
		}
	}
	return n <= maxInsts
}

// inlineOneCall finds and inlines one eligible call site in f. Reports
// whether it did.
func inlineOneCall(p *prog.Program, f *prog.Func, maxInsts int) bool {
	for _, b := range f.Blocks {
		for i := range b.Insts {
			in := &b.Insts[i]
			if in.Op != isa.OpCall {
				continue
			}
			callee := p.Funcs[in.Callee]
			if callee == f || !eligibleCallee(callee, maxInsts) {
				continue
			}
			performInline(p, f, b, i, callee)
			return true
		}
	}
	return false
}

// performInline splices a copy of callee into f at the call site (block b,
// index i). Canonical form guarantees the call is the last non-terminator
// and the return site starts another block.
func performInline(p *prog.Program, f *prog.Func, b *prog.Block, i int, callee *prog.Func) {
	rs := p.RetSites[b.Insts[i].Imm]

	// Copy the callee's blocks into f, remapping internal branch targets.
	copyOf := make([]int, len(callee.Blocks))
	for _, cb := range callee.Blocks {
		copyOf[cb.ID] = f.NewBlock().ID
	}
	for _, cb := range callee.Blocks {
		dst := f.Blocks[copyOf[cb.ID]]
		dst.Insts = append(dst.Insts, cb.Insts...)
		retargetEdges(dst, func(t int) int { return copyOf[t] })
		if t, ok := dst.Terminator(); ok && t.Op == isa.OpRet {
			// Return becomes a jump to the original return site.
			*t = isa.Inst{Op: isa.OpBr, Target: int32(rs.Block)}
		}
	}

	// Replace the call with a branch into the copied entry, dropping any
	// trailing instructions of b (canonically just the Br to the return
	// site, which the copied Rets now perform).
	b.Insts = append(b.Insts[:i:i], isa.Inst{Op: isa.OpBr, Target: int32(copyOf[callee.Entry])})
}
