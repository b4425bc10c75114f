// Package slab carves many short-lived small slices out of a few large
// allocations. A carved slice has a full-slice cap, so appending to it
// reallocates rather than writing into the next carve; the chunk it came
// from stays alive as long as any slice carved from it does.
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
