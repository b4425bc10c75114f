package analysis

import "capri/internal/slab"

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
// A slab's next chunk holds max(request, elements carved so far from that
// slab): chunks grow geometrically with actual use, so a small compile
// allocates small chunks and a large one makes few refills. The zero value
// is ready to use. An Arena is not safe for concurrent use.
type Arena struct {
	ints  pool[int]
	regs  pool[RegSet]
	words pool[uint64]
	cfgs  pool[CFG]
	lives pool[Liveness]
	loops pool[Loop]
	exits pool[LoopExit]
	cfgp  pool[*CFG]
	livep pool[*Liveness]
}

// pool is one typed slab of an Arena and the count of elements carved from
// it, which sizes its next chunk.
type pool[T any] struct {
	free   []T
	carved int
}

// carve returns n zero elements with a full-slice cap.
func (p *pool[T]) carve(n int) []T {
	out := slab.Carve(&p.free, n, p.carved)
	p.carved += n
	return out
}

// Ints returns n zeroed ints.
func (a *Arena) Ints(n int) []int { return a.ints.carve(n) }

// RegSets returns n empty register sets.
func (a *Arena) RegSets(n int) []RegSet { return a.regs.carve(n) }

// CFGs returns n nil CFG pointers, for a per-function table of CFGs.
func (a *Arena) CFGs(n int) []*CFG { return a.cfgp.carve(n) }

// Livenesses returns n nil Liveness pointers, for a per-function table of
// liveness results.
func (a *Arena) Livenesses(n int) []*Liveness { return a.livep.carve(n) }

// NewBlockSet returns an empty set able to hold block IDs below n.
func (a *Arena) NewBlockSet(n int) BlockSet { return BlockSet{a.words.carve((n + 63) / 64)} }
