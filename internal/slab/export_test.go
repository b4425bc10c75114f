package slab

// Carved returns the number of elements carved from p so far.
func (p *Pool[T]) Carved() int { return p.carved }
