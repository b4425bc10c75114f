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
// instructions, counting a per-block estimate of the checkpoint stores to be
// inserted later (ckptEstimate; paper §4.1 breaks the region/checkpoint
// circular dependence the same way: estimate per initial region, then
// combine). Where the real checkpoints still overflow a region, the ckpt
// pass cuts it (cutRegions).
//
// Oversized single blocks (more stores than the threshold on their own) are
// split first so a boundary can land mid-sequence.
//
// The traversal works because every cycle in the CFG passes through a loop
// header, which is a mandatory boundary: the store-count recurrence below
// only flows along forward edges of the resulting DAG.
func placeBoundaries(a *analysis.Arena, p *prog.Program, f *prog.Func, opts Options) {
	ckptEst := ckptEstimate(analysis.ComputeLiveness(analysis.BuildCFG(a, f)))
	// Split any block whose own store weight exceeds the threshold. A
	// prefix is never cut again; its suffix is a new block, visited later.
	for i := 0; i < len(f.Blocks); i++ {
		if cut, ok := oversizedCut(f.Blocks[i], opts.Threshold, ckptEst); ok {
			splitBlock(p, f, f.Blocks[i], cut)
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
		own := b.StoreCount() + ckptEst(b)
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

// oversizedCut returns an instruction index at which to split a block whose
// own weight exceeds the threshold, keeping threshold/2+1 stores in the
// prefix (never more than the threshold) so later checkpoint insertion has
// headroom.
func oversizedCut(b *prog.Block, threshold int, ckptEst func(*prog.Block) int) (int, bool) {
	if b.StoreCount()+ckptEst(b) <= threshold {
		return 0, false
	}
	// A store is never last: every block ends in its terminator.
	for i, stores := 0, 0; i < len(b.Insts); i++ {
		if b.Insts[i].IsStore() {
			if stores++; stores > threshold/2 && !b.Insts[i+1].IsTerminator() {
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

// cutRegions enforces invariant 3 of DESIGN.md in cc's functions once
// checkpoints are in the instruction stream, and reports whether it added a
// boundary. Each sweep over a function follows the worst path of every
// region that exceeds threshold to the instruction where it passes the
// threshold, and adds a boundary there (one per block and sweep), splitting
// the block when the cut falls mid-block. A checkpoint stays in its def's
// region: a cut at a checkpoint moves back to the def just before it. Sweeps
// repeat until every region fits. A cut at a region's own head would add no
// boundary, so the region is infeasible: the error names the function, the
// block and its live-in set.
func cutRegions(a *analysis.Arena, p *prog.Program, cc *ckptContext, threshold int) (bool, error) {
	cuts := 0
	for _, cfg := range cc.cfgs {
		for f, sweep := cfg.F, a; ; {
			down := regionWeights(sweep, cfg)
			at := sweep.Ints(len(f.Blocks)) // 1 + the cut index in each block, or 0
			n := cuts
			for _, head := range cfg.RPO {
				if !f.Blocks[head].BoundaryAt || down[head] <= threshold {
					continue
				}
				// left is the budget remaining when a block on the path starts.
				id, left := head, threshold
				for f.Blocks[id].StoreCount() <= left {
					left -= f.Blocks[id].StoreCount()
					next := -1
					for _, s := range cfg.Succ(id) {
						if !f.Blocks[s].BoundaryAt && (next < 0 || down[s] > down[next]) {
							next = s
						}
					}
					id = next
				}
				b, cut := f.Blocks[id], -1
				for left >= 0 {
					if cut++; b.Insts[cut].IsStore() {
						left--
					}
				}
				if b.Insts[cut].Op == isa.OpCkpt {
					cut--
				}
				if cut == 0 && id == head {
					return false, fmt.Errorf("func %s: region at b%d is infeasible at threshold %d: its first instruction and checkpoint overflow it (live-in %v)",
						f.Name, id, threshold, analysis.ComputeLiveness(cfg).LiveIn[id].Regs())
				}
				at[id] = cut + 1
			}
			for id, c := range at {
				if c > 1 {
					splitBlock(p, f, f.Blocks[id], c-1)
					f.Blocks[len(f.Blocks)-1].BoundaryAt = true
				} else if c == 1 {
					f.Blocks[id].BoundaryAt = true
				}
				cuts += min(c, 1)
			}
			if cuts == n {
				break
			}
			// Later sweeps carve from a fresh arena, so a long repair holds
			// one sweep's tables at a time.
			sweep = new(analysis.Arena)
			cfg = analysis.BuildCFG(sweep, f)
		}
	}
	return cuts > 0, nil
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
