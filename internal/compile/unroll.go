package compile

import (
	"capri/internal/analysis"
	"capri/internal/isa"
	"capri/internal/prog"
)

// Speculative loop unrolling (paper §4.3).
//
// Traditional unrolling needs the trip count; speculative unrolling does not:
// it duplicates the loop *body and its exit condition* k times, so each
// duplicated iteration can still leave the loop early. Only the original
// header remains a loop header — and thus a mandatory region boundary — so a
// region now covers up to k iterations, cutting boundary instructions and
// per-iteration checkpoint stores by ~k.
//
// We unroll innermost loops whose store weight per iteration is small
// relative to the threshold, choosing k ≈ threshold / weight capped at
// MaxUnroll, mirroring the paper's goal of filling regions up to the store
// budget.

// unrollStats reports what the pass did.
type unrollStats struct {
	LoopsUnrolled int
	CopiesMade    int
}

// unrollLoops applies speculative unrolling to every innermost loop of every
// function, once per loop. Returns statistics.
func unrollLoops(a *analysis.Arena, p *prog.Program, opts Options) unrollStats {
	var st unrollStats
	sc := newUnrollScratch(a, maxBlocks(p))
	for _, f := range p.Funcs {
		// One CFG and one loop forest serve the whole function. Innermost
		// loops are disjoint, and unrolling one only appends blocks and
		// rewrites edges inside it, so every other innermost loop keeps its
		// body, latch, weight and place in the forest's order. Its body
		// order in the first RPO stays right too: the header dominates the
		// body, so a depth-first search enters the body only through the
		// header and never returns once it leaves by an exit edge. The order
		// among body blocks thus depends only on edges inside the body.
		cfg := analysis.BuildCFG(a, f)
		loops := cfg.Loops()
		for i := range loops {
			l := &loops[i]
			if !innermost(loops, i) || len(l.Latches) != 1 {
				continue
			}
			k := unrollFactor(f, l, opts)
			if k <= 1 {
				continue
			}
			if unrollLoop(p, f, cfg, l, k, &sc) {
				st.LoopsUnrolled++
				st.CopiesMade += k - 1
			}
		}
	}
	return st
}

// innermost reports whether loops[i] has no other loop nested inside it.
func innermost(loops []analysis.Loop, i int) bool {
	for j := range loops {
		if loops[j].Parent == i {
			return false
		}
	}
	return true
}

// loopStoreWeight estimates the store-class weight of one iteration: the
// worst-case path store count through the loop body plus an estimate of one
// checkpoint per live-out def (matching ckptEstimate's shape).
func loopStoreWeight(f *prog.Func, l *analysis.Loop) int {
	w := 0
	var defs analysis.RegSet
	for id := l.Blocks.Next(0); id >= 0; id = l.Blocks.Next(id + 1) {
		b := f.Blocks[id]
		w += b.StoreCount()
		for i := range b.Insts {
			if d, ok := b.Insts[i].Def(); ok {
				defs.Add(d)
			}
		}
	}
	return w + defs.Count()
}

// unrollFactor picks the duplication count for loop l.
func unrollFactor(f *prog.Func, l *analysis.Loop, opts Options) int {
	// Refuse loops containing calls or syncs: calls re-enter boundary
	// territory anyway and sync blocks are mandatory boundaries, so
	// unrolling buys nothing.
	for id := l.Blocks.Next(0); id >= 0; id = l.Blocks.Next(id + 1) {
		b := f.Blocks[id]
		for i := range b.Insts {
			if b.Insts[i].Op == isa.OpCall || b.Insts[i].IsMandatoryBoundary() {
				return 1
			}
		}
	}
	w := loopStoreWeight(f, l)
	if w <= 0 {
		w = 1
	}
	k := opts.Threshold / (2 * w) // headroom: fill ~half the budget
	if k > opts.MaxUnroll {
		k = opts.MaxUnroll
	}
	if k < 1 {
		k = 1
	}
	// Bound code growth for large bodies.
	if sz := loopInstCount(f, l); sz*k > 4096 {
		k = 4096 / sz
		if k < 1 {
			k = 1
		}
	}
	return k
}

func loopInstCount(f *prog.Func, l *analysis.Loop) int {
	n := 0
	for id := l.Blocks.Next(0); id >= 0; id = l.Blocks.Next(id + 1) {
		n += len(f.Blocks[id].Insts)
	}
	return n
}

// unrollScratch is the unroll pass's working storage, reused across loops
// and functions: the body in RPO and the body-block-to-copy map. None of it
// outlives the pass, so none of it comes from a function's slab. The zero
// value works and grows on demand.
type unrollScratch struct {
	body, copyOf []int
}

// newUnrollScratch carves the scratch once from a for functions of at most
// n blocks: a body holds only blocks that predate the pass, so no loop
// outgrows it.
func newUnrollScratch(a *analysis.Arena, n int) unrollScratch {
	ints := a.Ints(2 * n)
	return unrollScratch{body: ints[:0:n], copyOf: ints[n:]}
}

// unrollLoop duplicates the loop body (header included) k-1 times. The
// original latch's back edge is redirected to the first copy's header; each
// copy's latch feeds the next copy's header; the last copy's latch keeps the
// back edge to the original header, closing the loop. Exit edges in every
// copy keep their original out-of-loop targets — the "duplicate the exit
// condition" trick of Figure 2(c), which is what makes the unrolling safe
// without knowing the trip count.
func unrollLoop(p *prog.Program, f *prog.Func, cfg *analysis.CFG, l *analysis.Loop, k int, sc *unrollScratch) bool {
	if k <= 1 {
		return false
	}
	latch := l.Latches[0]

	// Stable iteration order over the body.
	sc.body = sc.body[:0]
	for _, id := range cfg.RPO {
		if l.Blocks.Has(id) {
			sc.body = append(sc.body, id)
		}
	}
	// copyOf maps a body block to its copy this round; every body block
	// predates the copies, and so the CFG.
	n := len(cfg.InRPO)
	if cap(sc.copyOf) < n {
		sc.copyOf = make([]int, n)
	}
	copyOf := sc.copyOf[:n]
	// enter redirects latch b's back edge to the copy whose header is hdr.
	enter := func(b, hdr int) {
		retargetEdges(f.Blocks[b], func(old int) int {
			if old == l.Header {
				return hdr
			}
			return old
		})
	}

	// Every copy is made from the original body, which stays pristine until
	// the last copy exists: only its latch is redirected, at the end, so no
	// copy inherits a redirect meant for the original.
	prevLatch, firstHdr := -1, 0
	for c := 1; c < k; c++ {
		for _, id := range sc.body {
			copyOf[id] = f.NewBlock().ID
		}
		for _, id := range sc.body {
			dst := f.Blocks[copyOf[id]]
			dst.Insts = append(f.NewInsts(len(f.Blocks[id].Insts))[:0], f.Blocks[id].Insts...)
			retargetEdges(dst, func(old int) int {
				// Keep the copied latch's back edge pointing at the original
				// header; it either stays (last copy) or is redirected to the
				// next copy below.
				if (id == latch && old == l.Header) || !l.Blocks.Has(old) {
					return old
				}
				return copyOf[old]
			})
			// Duplicated calls need fresh return-site tokens pointing into
			// the copy (defensive: unrollFactor currently rejects loops with
			// calls).
			for i := range dst.Insts {
				in := &dst.Insts[i]
				if in.Op == isa.OpCall {
					in.Imm = p.AddRetSite(prog.RetSite{Func: f.ID, Block: dst.ID, Index: i + 1})
				}
			}
		}
		// The previous copy's latch now continues into this copy's header.
		if hdr := copyOf[l.Header]; prevLatch < 0 {
			firstHdr = hdr
		} else {
			enter(prevLatch, hdr)
		}
		prevLatch = copyOf[latch]
	}
	enter(latch, firstHdr)
	// prevLatch (the last copy's latch) still targets l.Header: loop closed.
	return true
}

// retargetEdges rewrites every branch target t of b's terminator to to(t).
func retargetEdges(b *prog.Block, to func(int) int) {
	if t, ok := b.Terminator(); ok && (t.Op == isa.OpBr || t.Op == isa.OpBrIf) {
		t.Target = int32(to(int(t.Target)))
		if t.Op == isa.OpBrIf {
			t.Else = int32(to(int(t.Else)))
		}
	}
}
