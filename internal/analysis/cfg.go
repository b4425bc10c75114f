// Package analysis provides the control-flow and dataflow analyses the Capri
// compiler is built on: reverse postorder, dominators, natural-loop
// detection, per-block liveness, and backward slices for checkpoint pruning.
// All analyses operate on a single function at a time.
package analysis

import (
	"slices"

	"capri/internal/prog"
)

// CFG caches successor and predecessor edges for a function.
type CFG struct {
	F     *prog.Func
	Succ  [][]int
	Pred  [][]int
	RPO   []int // reverse postorder of reachable blocks, entry first
	InRPO []int // block ID -> position in RPO, -1 if unreachable
}

// BuildCFG computes edges and reverse postorder for f in a constant number of
// allocations, whatever the function's size: every Succ and Pred list is a
// capped window of one shared int array, which also holds RPO, InRPO and the
// DFS stack.
func BuildCFG(f *prog.Func) *CFG {
	n := len(f.Blocks)
	var buf [2]int
	ne := 0
	for _, b := range f.Blocks {
		ne += len(b.Succs(buf[:0]))
	}
	// ints: successor edges [0,ne), predecessor edges [ne,2ne), InRPO, RPO
	// (filled back to front), then the DFS stack of (block, next) pairs.
	ints := make([]int, 2*ne+4*n)
	lists := make([][]int, 2*n)
	succ, pred, nodes := ints[:ne], ints[ne:2*ne], ints[2*ne:]
	c := &CFG{F: f, Succ: lists[:n:n], Pred: lists[n:], InRPO: nodes[:n:n]}
	rpo, stack := nodes[n:2*n], nodes[2*n:]
	off := 0
	for _, b := range f.Blocks {
		k := copy(succ[off:], b.Succs(buf[:0]))
		c.Succ[b.ID] = succ[off : off+k : off+k]
		off += k
		for _, s := range c.Succ[b.ID] {
			c.InRPO[s]++ // in-degree, until the DFS below
		}
	}
	off = 0
	for id, d := range c.InRPO {
		c.Pred[id] = pred[off : off : off+d]
		off += d
	}
	for _, b := range f.Blocks {
		for _, s := range c.Succ[b.ID] {
			c.Pred[s] = append(c.Pred[s], b.ID)
		}
	}
	// Iterative postorder DFS from the entry; InRPO >= 0 marks visited.
	for i := range c.InRPO {
		c.InRPO[i] = -1
	}
	pos, sp := n, 2
	stack[0], stack[1] = f.Entry, 0
	c.InRPO[f.Entry] = 0
	for sp > 0 {
		b, next := stack[sp-2], stack[sp-1]
		if next < len(c.Succ[b]) {
			stack[sp-1]++
			if s := c.Succ[b][next]; c.InRPO[s] < 0 {
				c.InRPO[s] = 0
				stack[sp], stack[sp+1] = s, 0
				sp += 2
			}
			continue
		}
		pos--
		rpo[pos] = b
		sp -= 2
	}
	c.RPO = rpo[pos:n:n]
	for i, b := range c.RPO {
		c.InRPO[b] = i
	}
	return c
}

// Reachable reports whether block b is reachable from the entry.
func (c *CFG) Reachable(b int) bool { return c.InRPO[b] >= 0 }

// Dominators computes the immediate-dominator tree using the classic
// Cooper-Harvey-Kennedy iterative algorithm. idom[entry] == entry;
// unreachable blocks get -1.
func (c *CFG) Dominators() []int {
	n := len(c.F.Blocks)
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	entry := c.F.Entry
	idom[entry] = entry

	intersect := func(a, b int) int {
		for a != b {
			for c.InRPO[a] > c.InRPO[b] {
				a = idom[a]
			}
			for c.InRPO[b] > c.InRPO[a] {
				b = idom[b]
			}
		}
		return a
	}

	changed := true
	for changed {
		changed = false
		for _, b := range c.RPO {
			if b == entry {
				continue
			}
			newIdom := -1
			for _, p := range c.Pred[b] {
				if idom[p] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != -1 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// Dominates reports whether a dominates b given an idom tree.
func Dominates(idom []int, entry, a, b int) bool {
	for {
		if b == a {
			return true
		}
		if b == entry || idom[b] == -1 {
			return false
		}
		b = idom[b]
	}
}

// Loop describes one natural loop.
type Loop struct {
	Header int
	// Latches are the blocks with back edges to the header.
	Latches []int
	// Blocks is the loop body including the header.
	Blocks BlockSet
	// Exits are (from, to) edges leaving the loop.
	Exits []LoopExit
	// Parent is the index of the innermost enclosing loop, or -1.
	Parent int
}

// LoopExit is an edge that leaves a loop.
type LoopExit struct {
	From int // block inside the loop
	To   int // block outside the loop
}

// Loops finds all natural loops (back edges to a dominator). Loops with the
// same header are merged, matching LLVM's notion of a loop. The returned
// slice is ordered outermost-first for nesting purposes; Parent links record
// the nesting. Allocations grow with the number of loops, not of blocks.
func (c *CFG) Loops() []Loop {
	idom := c.Dominators()
	n := len(c.F.Blocks)
	// loopOf maps a header to its loop's index (-1 elsewhere); work is the
	// body walk's stack, which never holds a block twice.
	slab := make([]int, 2*n)
	loopOf, work := slab[:n], slab[n:n]
	for i := range loopOf {
		loopOf[i] = -1
	}
	var loops []Loop
	for _, b := range c.RPO {
		for _, s := range c.Succ[b] {
			if !c.backEdge(idom, b, s) {
				continue
			}
			// b -> s is a back edge; s is the header.
			if loopOf[s] < 0 {
				loopOf[s] = len(loops)
				loops = append(loops, Loop{Header: s, Blocks: NewBlockSet(n), Parent: -1})
				loops[len(loops)-1].Blocks.Add(s)
			}
			l := &loops[loopOf[s]]
			l.Latches = append(l.Latches, b)
			// Collect the loop body: reverse reachability from the latch to
			// the header.
			if !l.Blocks.Has(b) {
				l.Blocks.Add(b)
				work = append(work, b)
			}
			for len(work) > 0 {
				x := work[len(work)-1]
				work = work[:len(work)-1]
				for _, p := range c.Pred[x] {
					if c.Reachable(p) && !l.Blocks.Has(p) {
						l.Blocks.Add(p)
						work = append(work, p)
					}
				}
			}
		}
	}

	for i := range loops {
		l := &loops[i]
		for b := l.Blocks.Next(0); b >= 0; b = l.Blocks.Next(b + 1) {
			for _, s := range c.Succ[b] {
				if !l.Blocks.Has(s) {
					l.Exits = append(l.Exits, LoopExit{From: b, To: s})
				}
			}
		}
	}
	// Sort outermost-first (larger body first, header ID tiebreak) for a
	// deterministic order.
	slices.SortFunc(loops, func(a, b Loop) int {
		if d := b.Blocks.Len() - a.Blocks.Len(); d != 0 {
			return d
		}
		return a.Header - b.Header
	})
	// Parent links: innermost enclosing loop = smallest strictly-containing.
	for i := range loops {
		best, bestSize := -1, 1<<30
		size := loops[i].Blocks.Len()
		for j := range loops {
			sz := loops[j].Blocks.Len()
			if i == j || sz <= size {
				continue
			}
			if loops[j].Blocks.Has(loops[i].Header) && sz < bestSize {
				best, bestSize = j, sz
			}
		}
		loops[i].Parent = best
	}
	return loops
}

// LoopHeaders returns the set of loop-header block IDs: the targets of back
// edges, without building the loop bodies.
func (c *CFG) LoopHeaders() BlockSet {
	idom := c.Dominators()
	hs := NewBlockSet(len(c.F.Blocks))
	for _, b := range c.RPO {
		for _, s := range c.Succ[b] {
			if c.backEdge(idom, b, s) {
				hs.Add(s)
			}
		}
	}
	return hs
}

// backEdge reports whether b -> s is a back edge: s is reachable and
// dominates b.
func (c *CFG) backEdge(idom []int, b, s int) bool {
	return c.Reachable(s) && Dominates(idom, c.F.Entry, s, b)
}
