package compile

import (
	"capri/internal/analysis"
	"capri/internal/isa"
	"capri/internal/prog"
)

// canonicalize rewrites each function so that region boundaries can always be
// expressed as block starts:
//
//   - every synchronization instruction (fence, atomic, lock, unlock,
//     barrier) sits in a block of its own — a mandatory boundary precedes it
//     and another follows it (paper §4.1);
//   - every call is the last non-terminator instruction of its block, so the
//     return site begins a block (function entry/exit boundaries, §3.3).
//
// Splitting renumbers return sites, so the program's RetSites table is
// rewritten in place.
func canonicalize(p *prog.Program) {
	for _, f := range p.Funcs {
		canonFunc(p, f)
	}
}

// canonFunc repeatedly splits blocks of f until canonical.
func canonFunc(p *prog.Program, f *prog.Func) {
	for {
		again := false
		for _, b := range f.Blocks {
			if cut, ok := splitPoint(b); ok {
				splitBlock(p, f, b, cut)
				again = true
				break // block slice changed; rescan
			}
		}
		if again {
			continue
		}
		// Return sites must sit at block starts so the function-exit
		// boundary executes when the callee returns.
		for i := range p.RetSites {
			rs := p.RetSites[i]
			if rs.Func == f.ID && rs.Index > 0 {
				splitBlock(p, f, f.Blocks[rs.Block], rs.Index)
				again = true
				break
			}
		}
		if !again {
			return
		}
	}
}

// splitPoint finds the first index at which block b must be split so that
// sync instructions sit in blocks of their own.
func splitPoint(b *prog.Block) (int, bool) {
	for i := range b.Insts {
		in := &b.Insts[i]
		if in.IsTerminator() {
			continue
		}
		if in.IsMandatoryBoundary() {
			if i > 0 {
				return i, true // sync must start its block
			}
			if !b.Insts[i+1].IsTerminator() {
				return i + 1, true // sync must be alone before the terminator
			}
		}
	}
	return 0, false
}

// splitBlock splits b at instruction index cut: b keeps [0,cut) plus a new
// Br to a fresh block holding [cut,len). Return-site tokens pointing into the
// moved suffix are redirected. The suffix is copied out first, so the Br
// reuses b's storage in place.
func splitBlock(p *prog.Program, f *prog.Func, b *prog.Block, cut int) {
	nb := f.NewBlock()
	nb.Insts = f.NewInsts(len(b.Insts) - cut)
	copy(nb.Insts, b.Insts[cut:])
	b.Insts = append(b.Insts[:cut], isa.Inst{Op: isa.OpBr, Target: int32(nb.ID)})

	for i := range p.RetSites {
		rs := &p.RetSites[i]
		if rs.Func == f.ID && rs.Block == b.ID && rs.Index >= cut {
			rs.Block = nb.ID
			rs.Index -= cut
		}
	}
}

// mandatoryBoundaries returns the set of block IDs that must carry a region
// boundary in f (paper §4.1): the entry block, cfg's loop headers, blocks
// starting with a sync instruction, blocks immediately after a sync, and
// return-site blocks. The program must already be canonical.
func mandatoryBoundaries(p *prog.Program, f *prog.Func, cfg *analysis.CFG) analysis.BlockSet {
	bs := cfg.LoopHeaders()
	bs.Add(f.Entry)
	for _, b := range f.Blocks {
		if len(b.Insts) > 0 && b.Insts[0].IsMandatoryBoundary() {
			bs.Add(b.ID)
			// The block after the sync starts the next region.
			for _, s := range cfg.Succ(b.ID) {
				bs.Add(s)
			}
		}
	}
	for _, rs := range p.RetSites {
		if rs.Func == f.ID {
			// Canonical programs have return sites at block starts.
			bs.Add(rs.Block)
		}
	}
	return bs
}
