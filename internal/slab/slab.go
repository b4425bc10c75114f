// Package slab carves many short-lived small slices out of a few large
// allocations. A carved slice has a full-slice cap, so appending to it
// reallocates rather than writing into the next carve; the chunk it came
// from stays alive as long as any slice carved from it does. Pages, the
// paged word table behind the simulator's memory images, carves its large
// pages the same way, at most a few to a chunk. Table, the flat address
// table behind the memory controller's monitoring window, keeps its entries
// in one slot array that it doubles when full.
package slab

// Carve returns the next n zero elements of *s, refilling *s with a fresh
// chunk of max(n, chunk) elements first when fewer than n remain.
func Carve[T any](s *[]T, n, chunk int) []T {
	if len(*s) < n {
		*s = make([]T, max(n, chunk))
	}
	out := (*s)[:n:n]
	*s = (*s)[n:]
	return out
}

// Pool is a typed slab whose chunks grow with its use. Its next chunk holds
// max(request, elements carved so far, the first-chunk size set by
// SizeFirst): a pool sized from its input allocates once for a typical
// load, and one that outgrows the estimate makes logarithmically many
// refills. Nothing is handed out twice; a carved window stays valid as long
// as it is referenced. The zero value is ready to use and its first chunk
// fits the first request exactly. A Pool is not safe for concurrent use.
//
// The growth rule is for small elements. Applied to memory pages (tens of
// KB each) its chunks reach megabytes, and a chunk lives as long as any
// page in it: carving 64 KB NVM pages this way raised the crash-audit
// benchmark's peak RSS from 40 to 54 MB. Pages caps its chunks at
// PagesPerChunk pages instead.
type Pool[T any] struct {
	free   []T
	carved int
	first  int
}

// SizeFirst makes every later chunk of p hold at least n elements; callers
// set it from the size of the input the pool will serve.
func (p *Pool[T]) SizeFirst(n int) { p.first = n }

// Carve returns n zero elements with a full-slice cap.
func (p *Pool[T]) Carve(n int) []T {
	out := Carve(&p.free, n, max(p.carved, p.first))
	p.carved += n
	return out
}

// Carved returns the number of elements carved from p so far.
func (p *Pool[T]) Carved() int { return p.carved }
