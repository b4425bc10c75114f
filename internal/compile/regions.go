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
func placeBoundaries(p *prog.Program, f *prog.Func, opts Options, ckptEst func(b *prog.Block) int) {
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

	cfg := analysis.BuildCFG(f)
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
	weight := make([]int, len(f.Blocks))
	for _, id := range cfg.RPO {
		b := f.Blocks[id]
		own := blockWeight(b, ckptEst)
		maxIn := 0
		for _, pr := range cfg.Pred[id] {
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

// Region is one compiler-formed region: a boundary block plus every block
// reachable from it without crossing another boundary.
type Region struct {
	// Head is the boundary block that starts the region.
	Head int
	// Blocks is the region's block set (includes Head).
	Blocks analysis.BlockSet
	// MaxStores is the worst-case store-class count along any path through
	// the region, counting actual instructions (checkpoints included).
	MaxStores int
}

// regionsOf groups the function's blocks into regions given final boundary
// flags. A non-boundary block reachable from multiple boundaries belongs to
// every such region (regions may overlap across join points; the worst-case
// store accounting covers all of them).
func regionsOf(f *prog.Func) []Region {
	cfg := analysis.BuildCFG(f)
	n := len(f.Blocks)
	// down[b] is the worst-case store count from the start of b to the end of
	// its region: b's own stores plus the worst of its non-boundary
	// successors. Every cycle passes through a loop header, which is a
	// boundary, so postorder computes each successor's value first, and a
	// region's worst case is down[] of its head.
	down := make([]int, n+n)
	work := down[n:n]
	heads := 0
	for i := len(cfg.RPO) - 1; i >= 0; i-- {
		b := cfg.RPO[i]
		best := 0
		for _, s := range cfg.Succ[b] {
			if !f.Blocks[s].BoundaryAt {
				best = max(best, down[s])
			}
		}
		down[b] = f.Blocks[b].StoreCount() + best
		if f.Blocks[b].BoundaryAt {
			heads++
		}
	}
	regions := make([]Region, 0, heads)
	sets := analysis.NewBlockSets(heads, n)
	for _, id := range cfg.RPO {
		if !f.Blocks[id].BoundaryAt {
			continue
		}
		r := Region{Head: id, Blocks: sets[len(regions)], MaxStores: down[id]}
		r.Blocks.Add(id)
		// Forward walk without crossing other boundaries.
		work = append(work, id)
		for len(work) > 0 {
			x := work[len(work)-1]
			work = work[:len(work)-1]
			for _, s := range cfg.Succ[x] {
				if f.Blocks[s].BoundaryAt || r.Blocks.Has(s) {
					continue
				}
				r.Blocks.Add(s)
				work = append(work, s)
			}
		}
		regions = append(regions, r)
	}
	return regions
}

// checkThreshold checks invariant 3 of DESIGN.md over every function: no
// region's worst-case store count exceeds the threshold. The error names the
// first offending region.
func checkThreshold(p *prog.Program, threshold int) error {
	for _, f := range p.Funcs {
		for _, r := range regionsOf(f) {
			if r.MaxStores > threshold {
				return fmt.Errorf("func %s: region at b%d has worst-case %d stores > threshold %d",
					f.Name, r.Head, r.MaxStores, threshold)
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
