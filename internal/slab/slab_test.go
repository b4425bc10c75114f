package slab

import "testing"

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
