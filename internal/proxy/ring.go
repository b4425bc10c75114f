package proxy

import "slices"

// ring is the FIFO policy every proxy structure shares — the front-end,
// path and back-end record rings, the boundary table and its payload
// arenas: buf[head:] are live and buf[head] is the oldest. Removing from the
// front advances head, so nothing is recopied per removal; adding at the
// tail first compacts the live window to the front when the backing is
// exhausted but has dead slots at the head, so the backing grows (by
// append's doubling) only when it is truly full. A ring carved at its bound
// therefore never allocates. Removed slots stay readable until the next add:
// every element type is pointer-free, so a dead slot retains nothing.
//
// Every element has an absolute position — the number of elements added
// before it — which compaction does not change, so one structure can refer
// to another's elements by position (a record to its boundary, a boundary to
// its payloads).
type ring[T any] struct {
	buf  []T
	head int
	base uint64 // position of buf[0]
}

// len returns the number of live entries.
func (r *ring[T]) len() int { return len(r.buf) - r.head }

// front returns the oldest live entry. It panics on an empty ring.
func (r *ring[T]) front() *T { return &r.buf[r.head] }

// live returns the live entries oldest-first.
func (r *ring[T]) live() []T { return r.buf[r.head:] }

// first returns the position of the oldest live entry (of the next add when
// the ring is empty).
func (r *ring[T]) first() uint64 { return r.base + uint64(r.head) }

// next returns the position the next add gets.
func (r *ring[T]) next() uint64 { return r.base + uint64(len(r.buf)) }

// at returns the element at position pos, live or removed since the last add.
func (r *ring[T]) at(pos uint64) *T { return &r.buf[pos-r.base] }

// span returns the n elements from position pos on, with a full-slice cap.
func (r *ring[T]) span(pos uint64, n int) []T {
	i := int(pos - r.base)
	return r.buf[i : i+n : i+n]
}

// add appends a slot at the tail and returns it. The slot may hold a dead
// entry's stale contents; the caller overwrites it in full.
func (r *ring[T]) add() *T {
	r.makeRoom(1)
	r.buf = r.buf[:len(r.buf)+1]
	return &r.buf[len(r.buf)-1]
}

// push appends vs at the tail, contiguously, and returns the position of
// the first.
func (r *ring[T]) push(vs []T) uint64 {
	r.makeRoom(len(vs))
	pos := r.next()
	r.buf = append(r.buf, vs...)
	return pos
}

// makeRoom frees n slots at the tail of the backing: it compacts the live
// window into the dead slots at the head and grows the backing if that is
// not enough.
func (r *ring[T]) makeRoom(n int) {
	if len(r.buf)+n <= cap(r.buf) {
		return
	}
	if r.head > 0 {
		m := copy(r.buf, r.buf[r.head:])
		r.buf = r.buf[:m]
		r.base += uint64(r.head)
		r.head = 0
	}
	r.buf = slices.Grow(r.buf, n)
}

// drop removes the n oldest entries — the back end's popped region stays
// readable in place until the next add — and rewinds to the front of the
// backing when the ring empties.
func (r *ring[T]) drop(n int) {
	r.head += n
	if r.head == len(r.buf) {
		r.base += uint64(len(r.buf))
		r.buf = r.buf[:0]
		r.head = 0
	}
}
