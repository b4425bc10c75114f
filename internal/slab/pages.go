package slab

import (
	"slices"
	"sort"
)

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
// never move, so a page pointer stays valid for the table's life, except
// that a shared page is replaced by its copy. Share forks a table without
// copying its pages: both tables then hold every direct page marked shared
// in its directory entry, and Own copies a shared page into the writer's
// own backing before handing it out, so neither table ever sees the
// other's writes. The zero
// value is an empty table. A Pages is not safe for concurrent use, and must
// not be copied once used.
type Pages[P any] struct {
	dir    []slot[P]
	far    map[uint64]*P // never shared: Share copies far pages
	free   []P
	n      int // materialized pages
	carved int // pages carved from this table's own backings
}

// slot is one directory entry: a page for reading, and the same page for
// writing while no other table may hold it (nil once shared, so the write
// fast path costs one load and a nil check, as a read does).
type slot[P any] struct {
	p *P
	w *P
}

// Get returns page pi for reading, or nil if it was never materialized. It
// allocates nothing and inlines into its caller.
func (t *Pages[P]) Get(pi uint64) *P {
	if dir := t.dir; pi < uint64(len(dir)) {
		return dir[pi].p
	}
	return t.far[pi]
}

// Owned returns page pi if it is materialized and no other table shares it,
// so a write to it is private to t, or nil. It is the write fast path: it
// allocates nothing and inlines into its caller, where Own does not.
func (t *Pages[P]) Owned(pi uint64) *P {
	if dir := t.dir; pi < uint64(len(dir)) {
		return dir[pi].w
	}
	return t.far[pi]
}

// Own returns page pi ready for writing: materialized as a zero page first
// if it never was, or copied into t's own backing first if another table
// may still share it.
func (t *Pages[P]) Own(pi uint64) *P {
	if dir := t.dir; pi < uint64(len(dir)) && dir[pi].p != nil {
		s := &dir[pi]
		if s.w == nil {
			p := t.carve()
			*p = *s.p
			*s = slot[P]{p, p}
		}
		return s.w
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
		t.n++
		t.far[pi] = t.carve()
		return t.far[pi]
	}
	switch {
	case t.n == 0 && pi < firstDir:
		first := new(struct {
			dir  [firstDir]slot[P]
			page [1]P
		})
		t.dir, t.free = first.dir[:], first.page[:]
	case pi >= uint64(len(t.dir)):
		grown := make([]slot[P], min(max(pi+1, 2*uint64(len(t.dir))), DirectPages))
		copy(grown, t.dir)
		t.dir = grown
	}
	t.n++
	p := t.carve()
	t.dir[pi] = slot[P]{p, p}
	return p
}

// carve returns a zero page from t's backings. They double from one page up
// to PagesPerChunk with the pages t has carved, shared ones not counted, so a
// fork that writes few of its pages copies them into small backings.
func (t *Pages[P]) carve() *P {
	t.carved++
	return &Carve(&t.free, 1, min(t.carved, PagesPerChunk))[0]
}

// Share returns a table holding t's pages without copying the direct ones:
// its one allocation is the directory. Every direct page becomes shared in
// both tables until one of them writes it through Own. Far pages are copied
// at once, into one backing. Share writes to t only to mark pages it has
// not marked yet, so sharing a table whose pages are all shared (any table
// Share returned, until it is written) only reads it, and any number of
// Shares of such a table may run at once.
func (t *Pages[P]) Share() Pages[P] {
	for i := range t.dir {
		if s := &t.dir[i]; s.w != nil {
			s.w = nil
		}
	}
	out := Pages[P]{dir: slices.Clone(t.dir), n: t.n}
	if len(t.far) > 0 {
		out.far = make(map[uint64]*P, len(t.far))
		backing := make([]P, len(t.far))
		for pi, p := range t.far {
			backing[0] = *p
			out.far[pi], backing = &backing[0], backing[1:]
		}
	}
	return out
}

// Len returns the number of materialized pages.
func (t *Pages[P]) Len() int { return t.n }

// Each visits every materialized page in ascending page-number order.
func (t *Pages[P]) Each(visit func(pi uint64, p *P)) {
	for pi, s := range t.dir {
		if s.p != nil {
			visit(uint64(pi), s.p)
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
	out := Pages[Q]{dir: make([]slot[Q], len(src.dir)), n: src.n, carved: src.n}
	backing := make([]Q, src.n)
	next := func(p *P) *Q {
		q := &backing[0]
		backing = backing[1:]
		fill(q, p)
		return q
	}
	for pi, s := range src.dir {
		if s.p != nil {
			q := next(s.p)
			out.dir[pi] = slot[Q]{q, q}
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
