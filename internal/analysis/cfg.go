// Package analysis provides the control-flow and dataflow analyses the Capri
// compiler is built on: reverse postorder, dominators, natural-loop
// detection, per-block liveness, and backward slices for checkpoint pruning.
// All analyses operate on a single function at a time.
package analysis

import (
	"slices"

	"capri/internal/prog"
)

// CFG caches successor and predecessor edges for a function. It records the
// Arena it was built in: its dominators, loops and liveness are carved from
// the same one.
type CFG struct {
	F     *prog.Func
	RPO   []int // reverse postorder of reachable blocks, entry first
	InRPO []int // block ID -> position in RPO, -1 if unreachable
	// edges holds every block's successors, then every block's
	// predecessors: Succ(b) is edges[succAt[b]:succAt[b+1]] and Pred(b)
	// edges[predAt[b]:predAt[b+1]].
	edges, succAt, predAt []int
	a                     *Arena
}

// Succ returns b's successors in terminator order. The list is a capped
// window: appending to it copies instead of overwriting a neighbour.
func (c *CFG) Succ(b int) []int {
	lo, hi := c.succAt[b], c.succAt[b+1]
	return c.edges[lo:hi:hi]
}

// Pred returns b's predecessors in ascending block order, as a capped
// window like Succ's.
func (c *CFG) Pred(b int) []int {
	lo, hi := c.predAt[b], c.predAt[b+1]
	return c.edges[lo:hi:hi]
}

// BuildCFG computes edges and reverse postorder for f in one int carve from
// a, which holds the edge lists, their offsets, InRPO and RPO.
func BuildCFG(a *Arena, f *prog.Func) *CFG {
	n := len(f.Blocks)
	var buf [2]int
	ne := 0
	for _, b := range f.Blocks {
		ne += len(b.Succs(buf[:0]))
	}
	// ints: successor edges [0,ne), predecessor edges [ne,2ne), succAt and
	// predAt (n+1 each), InRPO, then RPO, filled back to front while the DFS
	// stack grows at its front.
	ints := a.ints.Carve(2*ne + 4*n + 2)
	at := ints[2*ne : 2*ne+2*n+2]
	nodes := ints[2*ne+2*n+2:]
	c := &a.cfgs.Carve(1)[0]
	*c = CFG{F: f, InRPO: nodes[:n:n], edges: ints[: 2*ne : 2*ne], succAt: at[: n+1 : n+1], predAt: at[n+1:], a: a}
	order := nodes[n:]
	off := 0
	for id, b := range f.Blocks {
		c.succAt[id] = off
		off += copy(c.edges[off:], b.Succs(buf[:0]))
	}
	c.succAt[n] = ne
	// predAt from in-degrees; InRPO is each list's fill cursor until the DFS
	// below, so predecessors land in ascending block order.
	for _, s := range c.edges[:ne] {
		c.predAt[s+1]++
	}
	c.predAt[0] = ne
	for id := range n {
		c.predAt[id+1] += c.predAt[id]
		c.InRPO[id] = c.predAt[id]
	}
	for id := range n {
		for _, s := range c.Succ(id) {
			c.edges[c.InRPO[s]] = id
			c.InRPO[s]++
		}
	}
	// Iterative postorder DFS from the entry. InRPO[b] is -1 until b is
	// visited, then the index of its next successor to explore. The stack
	// order[:sp] and the finished blocks order[pos:] never hold a block
	// twice, so they fit in one array: a popped block lands at or above its
	// own stack slot.
	for i := range c.InRPO {
		c.InRPO[i] = -1
	}
	pos, sp := n, 1
	order[0] = f.Entry
	c.InRPO[f.Entry] = 0
	for sp > 0 {
		b := order[sp-1]
		if next := c.InRPO[b]; next < c.succAt[b+1]-c.succAt[b] {
			c.InRPO[b]++
			if s := c.edges[c.succAt[b]+next]; c.InRPO[s] < 0 {
				c.InRPO[s] = 0
				order[sp] = s
				sp++
			}
			continue
		}
		sp--
		pos--
		order[pos] = b
	}
	c.RPO = order[pos:n:n]
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
	idom := c.a.ints.Carve(len(c.F.Blocks))
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
			for _, p := range c.Pred(b) {
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
// the nesting. Everything is carved from the CFG's Arena: the loops, their
// bodies and, counted first, their latches and exits.
func (c *CFG) Loops() []Loop {
	idom := c.Dominators()
	n := len(c.F.Blocks)
	// loopOf maps a header to its loop's index (-1 elsewhere) and latches
	// counts its back edges; work is the body walk's stack, which never
	// holds a block twice.
	scratch := c.a.ints.Carve(3 * n)
	loopOf, latches, work := scratch[:n], scratch[n:2*n], scratch[2*n:2*n]
	for i := range loopOf {
		loopOf[i] = -1
	}
	k := 0
	for _, b := range c.RPO {
		for _, s := range c.Succ(b) {
			if c.backEdge(idom, b, s) {
				if loopOf[s] < 0 {
					loopOf[s] = k
					k++
				}
				latches[s]++
			}
		}
	}
	loops := c.a.loops.Carve(k)
	for h, li := range loopOf {
		if li >= 0 {
			loops[li] = Loop{Header: h, Latches: c.a.ints.Carve(latches[h])[:0], Blocks: c.a.NewBlockSet(n), Parent: -1}
			loops[li].Blocks.Add(h)
		}
	}
	for _, b := range c.RPO {
		for _, s := range c.Succ(b) {
			if !c.backEdge(idom, b, s) {
				continue
			}
			// b -> s is a back edge; s is the header.
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
				for _, p := range c.Pred(x) {
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
		ne := 0
		for b := l.Blocks.Next(0); b >= 0; b = l.Blocks.Next(b + 1) {
			for _, s := range c.Succ(b) {
				if !l.Blocks.Has(s) {
					ne++
				}
			}
		}
		l.Exits = c.a.exits.Carve(ne)[:0]
		for b := l.Blocks.Next(0); b >= 0; b = l.Blocks.Next(b + 1) {
			for _, s := range c.Succ(b) {
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
	hs := c.a.NewBlockSet(len(c.F.Blocks))
	for _, b := range c.RPO {
		for _, s := range c.Succ(b) {
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
