package machine

import (
	"math/rand"
	"testing"
)

// TestLineTableDedup checks the epoch-stamped scratch set against a plain map
// across epochs, growth, and the epoch-wrap slow path.
func TestLineTableDedup(t *testing.T) {
	var lt lineTable
	rng := rand.New(rand.NewSource(7))
	for epoch := 0; epoch < 50; epoch++ {
		lt.reset()
		ref := make(map[uint64]bool)
		// Region sizes sweep past the initial 128-slot table (load factor
		// 1/2) so growth reinsertes mid-epoch at least once.
		n := 8 + epoch*4
		for i := 0; i < n; i++ {
			line := uint64(rng.Intn(n)) * 64
			want := !ref[line]
			ref[line] = true
			if got := lt.add(line); got != want {
				t.Fatalf("epoch %d: add(%#x) = %v, want %v", epoch, line, got, want)
			}
		}
		if lt.n != len(ref) {
			t.Fatalf("epoch %d: n = %d, want %d distinct", epoch, lt.n, len(ref))
		}
	}
	// Epoch counter wrap: stale stamps must not alias the fresh epoch.
	lt.epoch = ^uint32(0) - 1
	lt.reset() // -> ^uint32(0)
	if !lt.add(64) || lt.add(64) {
		t.Fatal("pre-wrap epoch: dedup broken")
	}
	lt.reset() // wraps; slow path clears slots
	if lt.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", lt.epoch)
	}
	if !lt.add(64) {
		t.Fatal("post-wrap epoch: line from 4G epochs ago still counted as present")
	}
}

// TestScheduleDrainScratchZeroAlloc pins the steady-state allocation contract:
// once the table has grown to the largest region it has seen, a full
// reset+dedup pass over more distinct lines than the old linear-scan scheme
// handled (48) allocates nothing.
func TestScheduleDrainScratchZeroAlloc(t *testing.T) {
	var lt lineTable
	const lines = 200 // > 48, and past one growth of the 128-slot table
	// Warm: grow to capacity for this region size.
	lt.reset()
	for i := 0; i < lines; i++ {
		lt.add(uint64(i) * 64)
	}
	// One measured run of the whole loop: AllocsPerRun truncates its
	// average to a whole number, so a rare allocation must not be averaged
	// away.
	allocs := testing.AllocsPerRun(1, func() {
		for range 100 {
			lt.reset()
			for i := 0; i < lines; i++ {
				lt.add(uint64(i) * 64)
				lt.add(uint64(i) * 64) // duplicate probe, the common drain case
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("100 steady-state drain dedup passes allocate %v times, want 0", allocs)
	}
}

// BenchmarkScheduleDrain measures the drain scheduler's dedup scratch at a
// threshold-256 region shape: 256 word entries, two words per 64B line, so
// half the probes are duplicate hits. ReportAllocs pins the zero-alloc drain.
func BenchmarkScheduleDrain(b *testing.B) {
	var lt lineTable
	addrs := make([]uint64, 256)
	for i := range addrs {
		addrs[i] = uint64(i/2) * 64 // two entries per line
	}
	// One pass outside the timer grows the table to its steady-state size.
	lt.reset()
	for _, a := range addrs {
		lt.add(a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lt.reset()
		writes := 0
		for _, a := range addrs {
			if lt.add(a) {
				writes++
			}
		}
		if writes != 128 {
			b.Fatalf("distinct lines = %d, want 128", writes)
		}
	}
}
