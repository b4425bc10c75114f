package slab

import (
	"maps"
	"math/rand"
	"reflect"
	"testing"
)

func TestCarveFullCapAndRefill(t *testing.T) {
	var s []int
	a := Carve(&s, 3, 8)
	b := Carve(&s, 4, 8)
	if len(a) != 3 || cap(a) != 3 || len(b) != 4 || cap(b) != 4 {
		t.Fatalf("carves have len/cap %d/%d and %d/%d", len(a), cap(a), len(b), cap(b))
	}
	b[0] = 9
	a = append(a, 1) // must reallocate, not clobber b
	if b[0] != 9 {
		t.Fatal("append to a carve wrote into its neighbour")
	}
	c := Carve(&s, 2, 8) // one element left: refills
	if len(c) != 2 || len(s) != 6 {
		t.Fatalf("refill carve len %d, remaining %d; want 2, 6", len(c), len(s))
	}
	if big := Carve(&s, 20, 8); len(big) != 20 || len(s) != 0 {
		t.Fatalf("oversized carve len %d, remaining %d; want 20, 0", len(big), len(s))
	}
	if z := Carve(&s, 0, 8); len(z) != 0 {
		t.Fatalf("empty carve has len %d", len(z))
	}
}

func TestCarveAllocsPerChunk(t *testing.T) {
	n := testing.AllocsPerRun(10, func() {
		var s []uint64
		for i := 0; i < 64; i++ {
			Carve(&s, 4, 64)
		}
	})
	if n != 4 {
		t.Fatalf("64 carves of 4 from 64-element chunks made %.0f allocations, want 4", n)
	}
}

// TestPoolChunksGrowWithUse pins Pool's growth rule: the next chunk holds
// max(request, elements carved so far, the SizeFirst size).
func TestPoolChunksGrowWithUse(t *testing.T) {
	var p Pool[int]
	p.Carve(3) // first chunk fits the request: 3
	if len(p.free) != 0 {
		t.Fatalf("first chunk left %d spare, want 0", len(p.free))
	}
	p.Carve(2) // refill: max(2, 3 carved) = 3
	if len(p.free) != 1 {
		t.Fatalf("second chunk left %d spare, want 1", len(p.free))
	}
	p.Carve(10) // refill: max(10, 5 carved) = 10
	p.Carve(1)  // refill: max(1, 15 carved) = 15
	if len(p.free) != 14 || p.Carved() != 16 {
		t.Fatalf("fourth chunk left %d spare after %d carved, want 14 after 16", len(p.free), p.Carved())
	}

	var q Pool[int]
	q.SizeFirst(100)
	a := q.Carve(3) // first chunk: max(3, 0, 100) = 100
	if len(q.free) != 97 || cap(a) != 3 {
		t.Fatalf("sized first chunk left %d spare (carve cap %d), want 97 (3)", len(q.free), cap(a))
	}
	q.Carve(97)
	q.Carve(1) // refill: max(1, 100 carved, 100) = 100
	if len(q.free) != 99 {
		t.Fatalf("refill after a sized chunk left %d spare, want 99", len(q.free))
	}
	q.Carve(99)
	q.Carve(150) // refill: max(150, 200 carved, 100) = 200
	if len(q.free) != 50 {
		t.Fatalf("third chunk left %d spare, want 50", len(q.free))
	}
}

// TestPagesOrderAndCopy pins the page table's contract: a page keeps its
// address as the directory doubles and chunks refill, Each visits direct
// and far pages in ascending order, and Copy yields an independent table
// with the same pages.
func TestPagesOrderAndCopy(t *testing.T) {
	var tb Pages[[2]uint64]
	pis := []uint64{DirectPages + 5, 300, 3, DirectPages, 1 << 40, 0, 4, 2}
	held := map[uint64]*[2]uint64{}
	for _, pi := range pis {
		p := tb.Own(pi)
		p[0] = pi
		held[pi] = p
	}
	for pi, p := range held {
		if tb.Get(pi) != p || tb.Own(pi) != p || tb.Owned(pi) != p || p[0] != pi {
			t.Fatalf("page %d moved or was overwritten", pi)
		}
	}
	if tb.Get(1) != nil || tb.Get(DirectPages+1) != nil || tb.Len() != len(pis) {
		t.Fatalf("absent pages materialized: Len %d, want %d", tb.Len(), len(pis))
	}
	var order []uint64
	tb.Each(func(pi uint64, p *[2]uint64) { order = append(order, pi) })
	want := []uint64{0, 2, 3, 4, 300, DirectPages, DirectPages + 5, 1 << 40}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("Each visited %v, want %v", order, want)
	}
	cp := Copy(&tb, func(dst, src *[2]uint64) { dst[0], dst[1] = src[0], 1 })
	for _, pi := range pis {
		if q := cp.Get(pi); q == nil || q == held[pi] || q[0] != pi || q[1] != 1 {
			t.Fatalf("copy of page %d is %v, want a separate page holding [%d 1]", pi, q, pi)
		}
	}
	if cp.Len() != tb.Len() || tb.Get(0)[1] != 0 {
		t.Fatalf("copy has %d pages, source %d; source page 0 is %v", cp.Len(), tb.Len(), tb.Get(0))
	}
}

// TestPagesShareIsolation runs random writes, shares and drops over up to
// four live tables (an original, shares of it and shares of shares) against
// one map model each, and compares every live table with its model after
// every step: no table may see another's writes, a shared direct page is
// held once until a write copies it, far pages are copied at once, and
// pages first written after a share belong to the writer alone.
func TestPagesShareIsolation(t *testing.T) {
	type word struct{ pi, w uint64 }
	pis := []uint64{0, 1, 2, 5, firstDir - 1, firstDir, 300, DirectPages - 1, DirectPages, DirectPages + 7, 1 << 40}
	rng := rand.New(rand.NewSource(1))
	tables := []*Pages[[4]uint64]{new(Pages[[4]uint64])}
	models := []map[word]uint64{{}}
	pages := []map[uint64]bool{{}} // materialized pages, per model
	for step := 0; step < 5000; step++ {
		i := rng.Intn(len(tables))
		switch op := rng.Intn(20); {
		case op < 16:
			pi, w, v := pis[rng.Intn(len(pis))], uint64(rng.Intn(4)), uint64(step)
			tables[i].Own(pi)[w] = v
			models[i][word{pi, w}] = v
			pages[i][pi] = true
			if tables[i].Owned(pi) != tables[i].Get(pi) {
				t.Fatalf("step %d: table %d does not own page %d after writing it", step, i, pi)
			}
		case op < 19:
			sh := tables[i].Share()
			for _, pi := range pis {
				src, got := tables[i].Get(pi), sh.Get(pi)
				if direct := pi < DirectPages; src != nil && (got == src) != direct {
					t.Fatalf("step %d: share of page %d aliased %v, want %v", step, pi, got == src, direct)
				}
				if src != nil && pi < DirectPages && (tables[i].Owned(pi) != nil || sh.Owned(pi) != nil) {
					t.Fatalf("step %d: shared page %d is still owned", step, pi)
				}
			}
			j := len(tables)
			if j == 4 {
				j = rng.Intn(4)
			} else {
				tables, models, pages = append(tables, nil), append(models, nil), append(pages, nil)
			}
			tables[j], models[j], pages[j] = &sh, maps.Clone(models[i]), maps.Clone(pages[i])
		default:
			if len(tables) > 1 {
				tables = append(tables[:i], tables[i+1:]...)
				models = append(models[:i], models[i+1:]...)
				pages = append(pages[:i], pages[i+1:]...)
			}
		}
		for k, tb := range tables {
			if tb.Len() != len(pages[k]) {
				t.Fatalf("step %d: table %d has %d pages, model %d", step, k, tb.Len(), len(pages[k]))
			}
			for _, pi := range pis {
				p := tb.Get(pi)
				if (p != nil) != pages[k][pi] {
					t.Fatalf("step %d: table %d page %d present %v, model %v", step, k, pi, p != nil, pages[k][pi])
				}
				for w := uint64(0); p != nil && w < 4; w++ {
					if p[w] != models[k][word{pi, w}] {
						t.Fatalf("step %d: table %d page %d word %d = %d, model %d", step, k, pi, w, p[w], models[k][word{pi, w}])
					}
				}
			}
		}
	}
}
