package analysis

import (
	"capri/internal/prog"
	"capri/internal/slab"
)

// Arena is the backing store of a group of analyses — in the compiler, one
// compile. Every CFG, dominator tree, loop forest, liveness result and block
// set built through an Arena is carved from a few typed slabs, so a rebuilt
// analysis costs no allocation once the slabs are warm.
//
// Nothing is ever handed out twice: there is no reset and no reuse, so a
// result stays valid, and never changes under its holder, for as long as it
// is referenced. Carved windows have a full-slice cap, so appending to one
// (a Loop's Latches or Exits, a CFG's Succ(b)) copies instead of writing into
// its neighbour. The memory is reclaimed when the last result carved from a
// chunk is dropped.
//
// Each slab is a slab.Pool: its next chunk holds max(request, elements
// carved so far from that slab, its first-chunk size). Chunks grow
// geometrically with actual use, so a large compile makes few refills, and
// Reserve sizes the first chunks from the program the arena will analyse.
// The zero value is ready to use. An Arena is not safe for concurrent use.
type Arena struct {
	ints  slab.Pool[int]
	regs  slab.Pool[RegSet]
	words slab.Pool[uint64]
	cfgs  slab.Pool[CFG]
	lives slab.Pool[Liveness]
	loops slab.Pool[Loop]
	exits slab.Pool[LoopExit]
	cfgp  slab.Pool[*CFG]
	livep slab.Pool[*Liveness]
}

// Ints returns n zeroed ints.
func (a *Arena) Ints(n int) []int { return a.ints.Carve(n) }

// RegSets returns n empty register sets.
func (a *Arena) RegSets(n int) []RegSet { return a.regs.Carve(n) }

// CFGs returns n nil CFG pointers, for a per-function table of CFGs.
func (a *Arena) CFGs(n int) []*CFG { return a.cfgp.Carve(n) }

// Livenesses returns n nil Liveness pointers, for a per-function table of
// liveness results.
func (a *Arena) Livenesses(n int) []*Liveness { return a.livep.Carve(n) }

// NewBlockSet returns an empty set able to hold block IDs below n.
func (a *Arena) NewBlockSet(n int) BlockSet { return BlockSet{a.words.Carve((n + 63) / 64)} }

// Reserve sizes the arena's first chunks for rounds analyses of every
// function of p: a CFG with its dominators, loop forest and liveness, and
// one per-function table of CFGs and of liveness results per round. A loop
// is estimated per backward branch. An arena that outgrows the estimate
// refills as usual.
func (a *Arena) Reserve(p *prog.Program, rounds int) {
	ints, regs, words, loops := 0, 0, 0, 0
	var buf [2]int
	for _, f := range p.Funcs {
		n, ne, back := len(f.Blocks), 0, 0
		for _, b := range f.Blocks {
			for _, s := range b.Succs(buf[:0]) {
				ne++
				if s <= b.ID {
					back++
				}
			}
		}
		// CFG 2ne+4n+2, dominators n, loop scratch 3n, latches.
		ints += 2*ne + 8*n + 2 + back
		regs += 4 * n
		words += back * ((n + 63) / 64)
		loops += back
	}
	nf := len(p.Funcs)
	a.ints.SizeFirst(rounds * ints)
	a.regs.SizeFirst(rounds * regs)
	a.words.SizeFirst(rounds * words)
	a.cfgs.SizeFirst(rounds * nf)
	a.lives.SizeFirst(rounds * nf)
	a.loops.SizeFirst(rounds * loops)
	a.exits.SizeFirst(rounds * 2 * loops)
	a.cfgp.SizeFirst(rounds * nf)
	a.livep.SizeFirst(rounds * nf)
}
