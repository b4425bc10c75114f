package compile

import (
	"fmt"

	"capri/internal/analysis"
	"capri/internal/isa"
	"capri/internal/prog"
)

// placeBoundaries decides which blocks of f begin a region. Mandatory
// boundaries (function entry, loop headers, sync blocks and their successors,
// return sites) are fixed; optional boundaries are added only where needed so
// that no path through a region executes more than opts.Threshold store-class
// instructions. ckptEst supplies a per-block estimate of checkpoint stores to
// be inserted later (paper §4.1 breaks the region/checkpoint circular
// dependence the same way: estimate per initial region, then combine).
//
// Oversized single blocks (more stores than the threshold on their own) are
// split first so a boundary can land mid-sequence.
//
// The traversal works because every cycle in the CFG passes through a loop
// header, which is a mandatory boundary: the store-count recurrence below
// only flows along forward edges of the resulting DAG.
func placeBoundaries(a *analysis.Arena, p *prog.Program, f *prog.Func, opts Options, ckptEst func(b *prog.Block) int) {
	// Split any block whose own store weight exceeds the threshold.
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			if cut, ok := oversizedCut(b, opts.Threshold, ckptEst); ok {
				splitBlock(p, f, b, cut)
				changed = true
				break
			}
		}
	}

	cfg := analysis.BuildCFG(a, f)
	mand := mandatoryBoundaries(p, f, cfg)
	for _, b := range f.Blocks {
		b.BoundaryAt = opts.NaiveRegions || mand.Has(b.ID)
	}
	if opts.NaiveRegions {
		return
	}

	// weight[b]: worst-case store count from the enclosing region's start to
	// the end of b. Computed in RPO; a block becomes a boundary when carrying
	// the incoming maximum through it would overflow the threshold.
	weight := a.Ints(len(f.Blocks))
	for _, id := range cfg.RPO {
		b := f.Blocks[id]
		own := blockWeight(b, ckptEst)
		maxIn := 0
		for _, pr := range cfg.Pred(id) {
			// Back edges always target loop headers, which are boundaries;
			// their weight contribution is irrelevant because boundary
			// blocks reset below. Forward edges from unprocessed blocks
			// cannot occur in RPO for a DAG-with-headers.
			if w := weight[pr]; w > maxIn {
				maxIn = w
			}
		}
		if !b.BoundaryAt && maxIn+own > opts.Threshold {
			b.BoundaryAt = true
		}
		if b.BoundaryAt {
			weight[id] = own
		} else {
			weight[id] = maxIn + own
		}
	}
}

// blockWeight is the store weight of one block: its store-class instructions
// plus the estimated checkpoints it will receive.
func blockWeight(b *prog.Block, ckptEst func(*prog.Block) int) int {
	w := b.StoreCount()
	if ckptEst != nil {
		w += ckptEst(b)
	}
	return w
}

// oversizedCut returns an instruction index at which to split a block whose
// own weight exceeds the threshold, keeping at most threshold/2 stores in the
// prefix so later checkpoint insertion has headroom.
func oversizedCut(b *prog.Block, threshold int, ckptEst func(*prog.Block) int) (int, bool) {
	if blockWeight(b, ckptEst) <= threshold {
		return 0, false
	}
	budget := threshold / 2
	if budget < 1 {
		budget = 1
	}
	stores := 0
	for i := range b.Insts {
		if b.Insts[i].IsTerminator() {
			break
		}
		if b.Insts[i].IsStore() {
			stores++
			if stores > budget && i+1 < len(b.Insts) && !b.Insts[i+1].IsTerminator() {
				return i + 1, true
			}
		}
	}
	return 0, false
}

// regionWeights returns down[b], the worst-case store count from the start of
// b to the end of its region: b's own stores plus the worst of its
// non-boundary successors. Every cycle passes through a loop header, which is
// a boundary, so postorder computes each successor's value first, and a
// region's worst case is down[] of its head.
func regionWeights(a *analysis.Arena, cfg *analysis.CFG) []int {
	f := cfg.F
	down := a.Ints(len(f.Blocks))
	for i := len(cfg.RPO) - 1; i >= 0; i-- {
		b := cfg.RPO[i]
		best := 0
		for _, s := range cfg.Succ(b) {
			if !f.Blocks[s].BoundaryAt {
				best = max(best, down[s])
			}
		}
		down[b] = f.Blocks[b].StoreCount() + best
	}
	return down
}

// pathWeights returns through[b], the worst-case store count of a path
// through b within b's region: the stores from the region head up to b plus
// regionWeights' down[b]. A store added to b lands on every such path. The
// stores up to b flow forward in reverse postorder; the only edges against
// it are back edges, which enter loop headers, and headers are boundaries.
func pathWeights(a *analysis.Arena, cfg *analysis.CFG) []int {
	f := cfg.F
	through := a.Ints(len(f.Blocks)) // the stores before b until down is added
	for _, b := range cfg.RPO {
		w := through[b] + f.Blocks[b].StoreCount()
		for _, s := range cfg.Succ(b) {
			if !f.Blocks[s].BoundaryAt {
				through[s] = max(through[s], w)
			}
		}
	}
	for b, d := range regionWeights(a, cfg) {
		through[b] += d
	}
	return through
}

// checkThreshold checks invariant 3 of DESIGN.md over every function, given
// their CFGs: no region's worst-case store count exceeds the threshold. The
// error names the first offending region, in reverse postorder of region
// heads.
func checkThreshold(a *analysis.Arena, cfgs []*analysis.CFG, threshold int) error {
	for _, cfg := range cfgs {
		f := cfg.F
		down := regionWeights(a, cfg)
		for _, id := range cfg.RPO {
			if f.Blocks[id].BoundaryAt && down[id] > threshold {
				return fmt.Errorf("func %s: region at b%d has worst-case %d stores > threshold %d",
					f.Name, id, down[id], threshold)
			}
		}
	}
	return nil
}

// materializeBoundaries inserts an explicit OpBoundary instruction at the
// start of every boundary block so the architecture sees the region
// delimiters in the instruction stream (paper §3.2: "region boundary
// instructions").
func materializeBoundaries(f *prog.Func) {
	for _, b := range f.Blocks {
		if !b.BoundaryAt {
			continue
		}
		if len(b.Insts) > 0 && b.Insts[0].Op == isa.OpBoundary {
			continue
		}
		insts := f.NewInsts(len(b.Insts) + 1)
		insts[0] = isa.Inst{Op: isa.OpBoundary}
		copy(insts[1:], b.Insts)
		b.Insts = insts
	}
	// Return sites are at index 0 of their blocks after canonicalization, so
	// prepending the boundary leaves them pointing at the boundary itself —
	// exactly right: the boundary must execute when the callee returns.
}
