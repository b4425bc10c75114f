package slab

import "sort"

// Paged word-table geometry, shared by every Pages user: a page covers
// PageWords 8-byte words (16 KB of address space), and the direct
// directory indexes DirectPages pages (1 GB) before page numbers fall back
// to the far-page map.
const (
	PageShift   = 11
	PageWords   = 1 << PageShift
	PageMask    = PageWords - 1
	DirectPages = 1 << 16
	// PagesPerChunk caps the pages one backing allocation holds. A table's
	// chunks double from one page up to this cap, so a table never holds
	// more unused pages than used ones, a large one allocates once per
	// PagesPerChunk pages, and no backing grows with use the way a Pool's
	// chunks do.
	PagesPerChunk = 4
	// firstDir is the first directory's length (2 MB of address space). A
	// table whose first page lies inside it allocates that directory and
	// the page together.
	firstDir = 128
)

// Pages is a sparse table of pages of type P indexed by page number, the
// container behind the simulator's word-granular memory images. Page
// numbers below DirectPages index a directory slice (no hashing) that
// doubles when a page past its end materializes; larger ones live in a
// map. Pages are carved from backings of up to PagesPerChunk pages and
// never move, so a page pointer stays valid for the table's life. The zero
// value is an empty table. A Pages is not safe for concurrent use, and must
// not be copied once used.
type Pages[P any] struct {
	dir  []*P
	far  map[uint64]*P
	free []P
	n    int // materialized pages
}

// Get returns page pi, or nil if it was never materialized. It allocates
// nothing and inlines into its caller.
func (t *Pages[P]) Get(pi uint64) *P {
	if dir := t.dir; pi < uint64(len(dir)) {
		return dir[pi]
	}
	return t.far[pi]
}

// At returns page pi, materializing it as a zero page first if needed.
func (t *Pages[P]) At(pi uint64) *P {
	if dir := t.dir; pi < uint64(len(dir)) && dir[pi] != nil {
		return dir[pi]
	}
	return t.materialize(pi)
}

func (t *Pages[P]) materialize(pi uint64) *P {
	if pi >= DirectPages {
		if p := t.far[pi]; p != nil {
			return p
		}
		if t.far == nil {
			t.far = make(map[uint64]*P)
		}
		t.far[pi] = t.carve()
		return t.far[pi]
	}
	switch {
	case t.n == 0 && pi < firstDir:
		first := new(struct {
			dir  [firstDir]*P
			page [1]P
		})
		t.dir, t.free = first.dir[:], first.page[:]
	case pi >= uint64(len(t.dir)):
		grown := make([]*P, min(max(pi+1, 2*uint64(len(t.dir))), DirectPages))
		copy(grown, t.dir)
		t.dir = grown
	}
	t.dir[pi] = t.carve()
	return t.dir[pi]
}

func (t *Pages[P]) carve() *P {
	t.n++
	return &Carve(&t.free, 1, min(t.n, PagesPerChunk))[0]
}

// Len returns the number of materialized pages.
func (t *Pages[P]) Len() int { return t.n }

// Each visits every materialized page in ascending page-number order.
func (t *Pages[P]) Each(visit func(pi uint64, p *P)) {
	for pi, p := range t.dir {
		if p != nil {
			visit(uint64(pi), p)
		}
	}
	if len(t.far) == 0 {
		return
	}
	fis := make([]uint64, 0, len(t.far))
	for pi := range t.far {
		fis = append(fis, pi)
	}
	sort.Slice(fis, func(i, j int) bool { return fis[i] < fis[j] })
	for _, pi := range fis {
		visit(pi, t.far[pi])
	}
}

// Copy returns a table holding a page for every page of src, filled by
// fill from its source page. The copies share one backing allocation.
func Copy[P, Q any](src *Pages[P], fill func(dst *Q, src *P)) Pages[Q] {
	out := Pages[Q]{dir: make([]*Q, len(src.dir)), n: src.n}
	backing := make([]Q, src.n)
	next := func(p *P) *Q {
		q := &backing[0]
		backing = backing[1:]
		fill(q, p)
		return q
	}
	for pi, p := range src.dir {
		if p != nil {
			out.dir[pi] = next(p)
		}
	}
	if len(src.far) > 0 {
		out.far = make(map[uint64]*Q, len(src.far))
		for pi, p := range src.far {
			out.far[pi] = next(p)
		}
	}
	return out
}
