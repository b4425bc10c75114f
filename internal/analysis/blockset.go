package analysis

import "math/bits"

// BlockSet is a set of one function's block IDs, stored as a bitmap indexed
// by block ID. The analyses use it wherever they need a block set (loop
// bodies, loop headers, mandatory boundaries): its words are
// carved from an Arena (Arena.NewBlockSet), and Next visits the members in
// ascending ID order, so a pass that ranges over a set is deterministic.
type BlockSet struct{ words []uint64 }

// Add inserts block id, which must be below the n the set was made for.
func (s BlockSet) Add(id int) { s.words[id>>6] |= 1 << (id & 63) }

// Has reports whether block id is in the set. IDs at or above the set's size
// (blocks created after it was built) are never members.
func (s BlockSet) Has(id int) bool {
	return id>>6 < len(s.words) && s.words[id>>6]&(1<<(id&63)) != 0
}

// Clear removes every member.
func (s BlockSet) Clear() { clear(s.words) }

// Len returns the number of members.
func (s BlockSet) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Next returns the smallest member >= id, or -1 when there is none. Members
// are visited in ascending order with
//
//	for b := s.Next(0); b >= 0; b = s.Next(b + 1) { ... }
func (s BlockSet) Next(id int) int {
	for w := id >> 6; w < len(s.words); w++ {
		m := s.words[w]
		if w == id>>6 {
			m &= ^uint64(0) << (id & 63)
		}
		if m != 0 {
			return w<<6 + bits.TrailingZeros64(m)
		}
	}
	return -1
}
