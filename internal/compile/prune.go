package compile

import (
	"slices"

	"capri/internal/analysis"
	"capri/internal/isa"
	"capri/internal/prog"
)

// Optimal checkpoint pruning (paper §4.4.1, after Penny).
//
// A checkpoint of register r can be removed when r's value is reconstructible
// at recovery time from other checkpointed values: the defining instruction
// is re-executable (pure over registers) and each operand's checkpoint slot
// is guaranteed to still hold the operand's value at the def, at every
// boundary the pruned checkpoint would have served. The pruned checkpoint is
// replaced by a recovery slice attached to each served boundary block; the
// recovery protocol executes the slice after reloading the register file
// (paper Figure 3's "recovery block").
//
// Our reconstructibility check is deliberately conservative (see DESIGN.md):
//
//  1. the def of r immediately precedes the checkpoint, is re-executable,
//     and may chain through up to sliceDepth earlier re-executable defs in
//     the same block;
//  2. every leaf operand s has a dominating checkpoint earlier in the same
//     block with no intervening redefinition of s;
//  3. from the def to every served boundary (forward walk bounded by
//     pruneWalkLimit blocks), neither r nor any slice register is redefined
//     or re-checkpointed, so the slot values the slice reads at recovery are
//     exactly the values the slice needs.
const (
	sliceDepth     = 3
	pruneWalkLimit = 1024
)

// pruneCheckpoints removes reconstructible checkpoints in f and attaches
// recovery slices to the boundary blocks they served. calleeReads, the call
// summary's transitive may-read set per callee, makes the liveness the walk
// uses call-aware (a value consumed only by a callee must keep the walk alive
// up to the call, where instPreserves then aborts conservatively). Returns the
// number of checkpoints pruned. sc is the pass's scratch, reused across
// functions and sized for the largest; the analyses are carved from a.
func pruneCheckpoints(a *analysis.Arena, f *prog.Func, calleeReads []analysis.RegSet, sc *pruneScratch) int {
	cfg := analysis.BuildCFG(a, f)
	lv := analysis.ComputeLivenessCallAware(cfg, calleeReads)
	idom := cfg.Dominators()
	pruned := 0

	for _, id := range cfg.RPO {
		b := f.Blocks[id]
		for i := 0; i < len(b.Insts); i++ {
			if i == 0 || b.Insts[i].Op != isa.OpCkpt {
				continue
			}
			r, def := b.Insts[i].Ra, b.Insts[i-1]
			if d, ok := def.Def(); !ok || d != r || !def.IsReexecutable() {
				continue
			}
			sc.slice, sc.idxs = sc.slice[:0], sc.idxs[:0]
			leaves, ok := sc.buildSlice(b, i-1, sliceDepth)
			if !ok || !sliceConsistent(b, i-1, leaves, sc.idxs) {
				continue
			}
			boundaries, regsOK := sc.servedBoundaries(f, cfg, lv, id, i, r, leaves)
			if !regsOK || len(boundaries) == 0 {
				continue
			}
			// The slice must be the unique reaching definition of r at every
			// served boundary: if any *other* def of r (e.g. a redefinition
			// in a loop body) can reach a served boundary, executing the
			// slice at recovery would overwrite the newer checkpointed
			// value. (The forward walk above ends at redefs, so it cannot
			// see paths that flow through them back to the boundary.)
			if sc.otherDefReaches(f, cfg, id, i-1, r, boundaries) {
				continue
			}
			// A slice at boundary β is only correct if every path into β
			// runs through this def (otherwise recovery would overwrite an r
			// produced elsewhere), so the defining block must dominate every
			// served boundary; and no boundary may already carry a slice for
			// r from a different def. An earlier slice at a boundary may also
			// read r's checkpoint slot as a leaf; deleting r's checkpoint
			// would leave that slice a stale slot, so the prune must not
			// proceed.
			if slices.ContainsFunc(boundaries, func(bb int) bool {
				return f.Blocks[bb].Slice(r) != nil || sliceLeafsOn(f.Blocks[bb], r) || !analysis.Dominates(idom, f.Entry, id, bb)
			}) {
				continue
			}
			// Commit the prune: delete the ckpt, attach slices.
			b.Insts = slices.Delete(b.Insts, i, i+1)
			for _, bb := range boundaries {
				f.AddSlice(f.Blocks[bb], r, sc.slice)
			}
			pruned++
			i-- // re-examine the instruction now at index i
		}
	}
	return pruned
}

// buildSlice builds the recovery slice ending at the def at index di of block
// b: the def itself, preceded (recursively, up to depth) by re-executable
// defs of its operands when those operands are not directly checkpointed.
// It appends the slice in execution order to sc.slice and the original
// instruction indexes of its members to sc.idxs, and returns the set of leaf
// registers whose checkpoint slots the slice reads and whether construction
// succeeded; on failure the appended tail is garbage.
//
// The caller must additionally run sliceConsistent: the recursion validates
// each operand locally, but a flattened slice is only executable over a
// single register file when every involved register has exactly one version
// across the whole range (see the version-conflict example there).
func (sc *pruneScratch) buildSlice(b *prog.Block, di int, depth int) (analysis.RegSet, bool) {
	def := b.Insts[di]
	var leaves analysis.RegSet
	var ops [3]isa.Reg
	for _, s := range def.Uses(ops[:0]) {
		// Case 1: s checkpointed earlier in this block with no intervening
		// redefinition — slot[s] holds the right value; s is a leaf.
		if hasFreshCkptBefore(b, di, s) {
			leaves.Add(s)
			continue
		}
		// Case 2: recurse into s's defining instruction if it is the nearest
		// def, re-executable and within depth. Its sub-slice lands before
		// this def.
		if depth == 0 {
			return 0, false
		}
		sdi, ok := nearestDefBefore(b, di, s)
		if !ok || !b.Insts[sdi].IsReexecutable() {
			return 0, false
		}
		subLeaves, ok := sc.buildSlice(b, sdi, depth-1)
		if !ok {
			return 0, false
		}
		leaves = leaves.Union(subLeaves)
	}
	sc.slice = append(sc.slice, def)
	sc.idxs = append(sc.idxs, di)
	return leaves, true
}

// sliceConsistent verifies the single-version property that makes a
// flattened slice executable over one register file seeded from checkpoint
// slots. Consider:
//
//	a = 1; b = a + 5; a = 2; d = a + b; ckpt d
//
// A naive slice for d would contain both defs of a, and replaying it
// computes d from the wrong a. The sound condition: within
// [min(slice idx), di], the only definitions of any involved register
// (slice leaves and slice defs) are the slice instructions themselves, and
// each slice instruction defines a distinct register. Leaf freshness before
// the range is already guaranteed by hasFreshCkptBefore at each consumer,
// and freshness after di by servedBoundaries' protected-set walk.
func sliceConsistent(b *prog.Block, di int, leaves analysis.RegSet, idxs []int) bool {
	lo := di
	var defs analysis.RegSet
	for k, j := range idxs {
		if slices.Contains(idxs[:k], j) {
			// The same instruction pulled in via two operands is fine, but
			// it would be appended twice; reject to keep slices minimal and
			// replay-safe.
			return false
		}
		lo = min(lo, j)
		d, ok := b.Insts[j].Def()
		if !ok || defs.Has(d) || leaves.Has(d) {
			return false // two versions of one register in the slice
		}
		defs.Add(d)
	}
	involved := leaves | defs
	for j := lo; j <= di; j++ {
		if d, ok := b.Insts[j].Def(); ok && involved.Has(d) && !slices.Contains(idxs, j) {
			return false // an outside def would change an involved version
		}
	}
	return true
}

// hasFreshCkptBefore reports whether register s has an OpCkpt earlier in b
// (before index di) with no redefinition of s between the checkpoint and di.
func hasFreshCkptBefore(b *prog.Block, di int, s isa.Reg) bool {
	for j := di - 1; j >= 0; j-- {
		in := &b.Insts[j]
		if in.Op == isa.OpCkpt && in.Ra == s {
			return true
		}
		if d, ok := in.Def(); ok && d == s {
			return false
		}
	}
	return false
}

// nearestDefBefore finds the closest instruction before di defining s, with
// no other def in between (by construction of the backward scan).
func nearestDefBefore(b *prog.Block, di int, s isa.Reg) (int, bool) {
	for j := di - 1; j >= 0; j-- {
		if d, ok := b.Insts[j].Def(); ok && d == s {
			return j, true
		}
	}
	return 0, false
}

// pruneScratch is the prune pass's working state, reused across candidates
// and functions: block-indexed visited and boundary marks, one work stack,
// the served-boundary list, and the candidate's recovery slice with its
// instruction indexes. newPruneScratch carves all of it once per pass, at
// bounds no walk or slice exceeds, so a candidate's slice and walks
// allocate nothing.
type pruneScratch struct {
	visited, bound analysis.BlockSet
	work, served   []int
	slice          []isa.Inst
	idxs           []int
}

// maxSliceLen bounds a recovery slice: buildSlice follows at most three
// operands per instruction, sliceDepth levels deep.
const maxSliceLen = 1 + 3 + 3*3 + 3*3*3

// newPruneScratch carves the prune scratch from a for functions of at most
// n blocks. A walk pushes each visited block's successors (at most two) on
// top of its seeds, which are successors of at most every block, so the
// work stack stays within 4n.
func newPruneScratch(a *analysis.Arena, n int) pruneScratch {
	ints := a.Ints(5*n + maxSliceLen)
	return pruneScratch{
		visited: a.NewBlockSet(n),
		bound:   a.NewBlockSet(n),
		work:    ints[: 0 : 4*n],
		served:  ints[4*n : 4*n : 5*n],
		idxs:    ints[5*n : 5*n],
		slice:   make([]isa.Inst, 0, maxSliceLen),
	}
}

// walk starts a fresh walk from the given blocks: nothing visited yet.
func (sc *pruneScratch) walk(from []int) {
	sc.visited.Clear()
	sc.work = append(sc.work[:0], from...)
}

// next pops the next unvisited block of the walk and marks it visited;
// ok is false once the walk is exhausted.
func (sc *pruneScratch) next() (b int, ok bool) {
	for len(sc.work) > 0 {
		b = sc.work[len(sc.work)-1]
		sc.work = sc.work[:len(sc.work)-1]
		if !sc.visited.Has(b) {
			sc.visited.Add(b)
			return b, true
		}
	}
	return 0, false
}

// servedBoundaries walks forward from the checkpoint position (block id,
// instruction index ci) collecting every boundary block at which r is live-in
// and therefore relies on this checkpoint. The walk stops along a path once r
// is redefined or dead. It fails (regsOK=false) if, anywhere in the walked
// range, r or any slice leaf register is redefined or re-checkpointed — which
// would make the recovery slice read stale or future slot values — or if the
// walk exceeds pruneWalkLimit blocks. The returned list is scratch, valid
// until the next call.
func (sc *pruneScratch) servedBoundaries(f *prog.Func, cfg *analysis.CFG, lv *analysis.Liveness,
	id, ci int, r isa.Reg, leaves analysis.RegSet) ([]int, bool) {

	protect := leaves
	protect.Add(r)

	// Check the remainder of the defining block first. If the block returns
	// while r's value is current, the value escapes to an unknown caller
	// whose boundaries this intraprocedural walk cannot serve — abort (this
	// is why the need analysis checkpointed it in the first place).
	defBlk := f.Blocks[id]
	for j := ci + 1; j < len(defBlk.Insts); j++ {
		if !instPreserves(&defBlk.Insts[j], protect) {
			return nil, false
		}
	}
	if t, ok := defBlk.Terminator(); ok && t.Op == isa.OpRet {
		return nil, false
	}

	sc.served = sc.served[:0]
	sc.walk(cfg.Succ(id))
	steps := 0
	for x, ok := sc.next(); ok; x, ok = sc.next() {
		if steps++; steps > pruneWalkLimit {
			return nil, false
		}
		blk := f.Blocks[x]
		if blk.BoundaryAt {
			if lv.LiveIn[x].Has(r) {
				sc.served = append(sc.served, x)
			} else {
				// r dead at this boundary: nothing to restore; stop path.
				continue
			}
		} else if !lv.LiveIn[x].Has(r) {
			continue
		}
		// Scan the block: if r is redefined, the path ends (a later def has
		// its own checkpoint); any violation of the protected set fails.
		ended := false
		for j := range blk.Insts {
			in := &blk.Insts[j]
			if d, ok := in.Def(); ok && d == r {
				ended = true
				break
			}
			if !instPreserves(in, protect) {
				return nil, false
			}
		}
		if ended {
			continue
		}
		// A live value reaching Ret escapes into the caller: its boundaries
		// are outside this walk, so the prune would leave them a stale slot.
		if t, ok := blk.Terminator(); ok && t.Op == isa.OpRet {
			return nil, false
		}
		sc.work = append(sc.work, cfg.Succ(x)...)
	}
	return sc.served, true
}

// otherDefReaches reports whether any definition of r other than the one at
// (defBlock, defIdx) has a control-flow path to one of the given boundary
// blocks. Reachability is over successor edges from the defining blocks
// (paths within a block after a def fall through to its successors), as one
// walk seeded with the successors of every other defining block; kills along
// the way are ignored — over-approximating keeps the check sound.
func (sc *pruneScratch) otherDefReaches(f *prog.Func, cfg *analysis.CFG, defBlock, defIdx int, r isa.Reg, boundaries []int) bool {
	sc.walk(nil)
	for _, blk := range f.Blocks {
		for j := range blk.Insts {
			if d, ok := blk.Insts[j].Def(); ok && d == r && (blk.ID != defBlock || j != defIdx) {
				sc.work = append(sc.work, cfg.Succ(blk.ID)...)
				break
			}
		}
	}
	sc.bound.Clear()
	for _, b := range boundaries {
		sc.bound.Add(b)
	}
	reaches := false
	for x, ok := sc.next(); ok && !reaches; x, ok = sc.next() {
		reaches = sc.bound.Has(x)
		sc.work = append(sc.work, cfg.Succ(x)...)
	}
	return reaches
}

// sliceLeafsOn reports whether any recovery slice already attached to the
// block reads register r from its checkpoint slot (r is one of its leaves).
func sliceLeafsOn(b *prog.Block, r isa.Reg) bool {
	for _, s := range b.RecoverySlices {
		if sliceLeaves(s.Insts).Has(r) {
			return true
		}
	}
	return false
}

// instPreserves reports whether the instruction neither redefines nor
// re-checkpoints any protected register. Calls fail conservatively (the
// callee may do either).
func instPreserves(in *isa.Inst, protect analysis.RegSet) bool {
	if in.Op == isa.OpCall {
		return false
	}
	if in.Op == isa.OpCkpt && protect.Has(in.Ra) {
		return false
	}
	if d, ok := in.Def(); ok && protect.Has(d) {
		return false
	}
	return true
}
