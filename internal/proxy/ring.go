package proxy

import "slices"

// ring is the FIFO policy the front-end buffer, the proxy path and the
// back-end buffer share: buf[head:] are live and buf[head] is the oldest.
// Removing from the front advances head, so nothing is recopied per removal;
// adding at the tail first compacts the live window to the front when the
// backing is exhausted but has dead slots at the head, so the backing grows
// (by append's doubling) only when it is truly full. A ring carved at its
// bound therefore never allocates. Removing does not clear: the owner
// releases a removed entry's Ckpts/Emits backings (Entry.release), which is
// cheaper than zeroing the whole slot on every removal.
type ring[T any] struct {
	buf  []T
	head int
}

// len returns the number of live entries.
func (r *ring[T]) len() int { return len(r.buf) - r.head }

// front returns the oldest live entry. It panics on an empty ring.
func (r *ring[T]) front() *T { return &r.buf[r.head] }

// live returns the live entries oldest-first.
func (r *ring[T]) live() []T { return r.buf[r.head:] }

// add appends a slot at the tail and returns it. The slot may hold a dead
// entry's stale contents; the caller overwrites it in full.
func (r *ring[T]) add() *T {
	if len(r.buf) == cap(r.buf) {
		r.makeRoom()
	}
	r.buf = r.buf[:len(r.buf)+1]
	return &r.buf[len(r.buf)-1]
}

// makeRoom frees a slot at the tail of an exhausted backing: it compacts the
// live window into the dead slots at the head, or, with none, grows it.
func (r *ring[T]) makeRoom() {
	if r.head == 0 {
		r.buf = slices.Grow(r.buf, 1)
		return
	}
	n := copy(r.buf, r.buf[r.head:])
	clear(r.buf[n:]) // moved-from slots retain no Ckpts/Emits backings
	r.buf = r.buf[:n]
	r.head = 0
}

// drop removes the n oldest entries — the back end's popped region stays
// readable in place until the next add — and rewinds to the front of the
// backing when the ring empties.
func (r *ring[T]) drop(n int) {
	r.head += n
	if r.head == len(r.buf) {
		r.buf = r.buf[:0]
		r.head = 0
	}
}
