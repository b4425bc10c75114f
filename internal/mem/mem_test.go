package mem

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"
)

func TestAddressHelpers(t *testing.T) {
	if LineAddr(0x1234) != 0x1200 {
		t.Errorf("LineAddr(0x1234) = %#x", LineAddr(0x1234))
	}
	if WordAddr(0x1237) != 0x1230 {
		t.Errorf("WordAddr(0x1237) = %#x", WordAddr(0x1237))
	}
	f := func(a uint64) bool {
		return LineAddr(a)%LineSize == 0 && WordAddr(a)%WordSize == 0 &&
			LineAddr(a) <= a && WordAddr(a) <= a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNVMSeqGuard(t *testing.T) {
	n := NewNVM()
	if !n.Write(0x100, 7, 10) {
		t.Fatal("first write rejected")
	}
	if n.Write(0x100, 9, 5) {
		t.Error("stale write (seq 5 < 10) accepted")
	}
	if got := n.Peek(0x100); got.Val != 7 || got.Seq != 10 {
		t.Errorf("word = %+v", got)
	}
	if !n.Write(0x100, 9, 11) {
		t.Error("newer write rejected")
	}
	if n.StaleSkips != 1 {
		t.Errorf("stale skips = %d", n.StaleSkips)
	}
}

func TestNVMEqualSeqRejected(t *testing.T) {
	n := NewNVM()
	n.Write(0x40, 1, 5)
	if n.Write(0x40, 2, 5) {
		t.Error("equal-seq write must be rejected (idempotent redo replay)")
	}
}

func TestNVMRestoreBypassesGuard(t *testing.T) {
	n := NewNVM()
	n.Write(0x40, 42, 100)
	n.Restore(0x40, 7, 99)
	if got := n.Peek(0x40); got.Val != 7 || got.Seq != 99 {
		t.Errorf("after restore: %+v", got)
	}
}

func TestNVMCloneIndependent(t *testing.T) {
	n := NewNVM()
	n.Write(0x40, 1, 1)
	c := n.Clone()
	c.Write(0x48, 2, 2)
	n.Write(0x50, 3, 3)
	if c.Peek(0x50).Seq != 0 {
		t.Error("clone sees original's later write")
	}
	if n.Peek(0x48).Seq != 0 {
		t.Error("original sees clone's write")
	}
	if c.Peek(0x40).Val != 1 {
		t.Error("clone missing copied word")
	}
}

func TestNVMWordAlignment(t *testing.T) {
	n := NewNVM()
	n.Write(0x101, 5, 1) // unaligned: lands in word 0x100
	if n.Peek(0x100).Val != 5 {
		t.Error("unaligned write not coalesced to word address")
	}
}

func TestMemStoreReturnsUndo(t *testing.T) {
	m := NewMem()
	if old := m.Store(0x20, 11); old != 0 {
		t.Errorf("first store undo = %d, want 0", old)
	}
	if old := m.Store(0x20, 22); old != 11 {
		t.Errorf("second store undo = %d, want 11", old)
	}
	if m.Load(0x20) != 22 {
		t.Errorf("load = %d", m.Load(0x20))
	}
}

func TestMemSnapshotRoundTrip(t *testing.T) {
	m := NewMem()
	m.Store(0x10, 1)
	m.Store(0x18, 2)
	s := m.Snapshot()
	m2 := FromSnapshot(s)
	if m2.Load(0x10) != 1 || m2.Load(0x18) != 2 {
		t.Error("snapshot round trip lost data")
	}
	// Mutating the copy must not affect the original.
	m2.Store(0x10, 99)
	if m.Load(0x10) != 1 {
		t.Error("FromSnapshot aliases the source")
	}
}

func TestDRAMCacheDirectMapped(t *testing.T) {
	d := NewDRAMCache(2 * LineSize) // two sets
	if d.Access(0) {
		t.Error("cold access hit")
	}
	if !d.Access(8) {
		t.Error("same-line access missed")
	}
	// 2*LineSize maps to set 0: conflict evicts line 0.
	if d.Access(2 * LineSize) {
		t.Error("conflicting line hit")
	}
	if d.Access(0) {
		t.Error("evicted line still hit")
	}
	if d.Hits != 1 || d.Misses != 3 {
		t.Errorf("hits=%d misses=%d", d.Hits, d.Misses)
	}
}

func TestDRAMCacheReset(t *testing.T) {
	d := NewDRAMCache(4 * LineSize)
	d.Access(0)
	d.Reset()
	if d.Access(0) {
		t.Error("hit after reset")
	}
}

func TestDRAMCacheFill(t *testing.T) {
	d := NewDRAMCache(4 * LineSize)
	d.Fill(128)
	if !d.Access(128) {
		t.Error("filled line missed")
	}
}

// TestDRAMFirstAccessAllocsOnlyTags pins the tag chunk's size: a cache
// smaller than one chunk allocates only its own tags on first touch. At the
// crash campaigns' 16 KB that is 256 sets, 2 KB, not a whole 64 KB chunk.
// TotalAlloc counts the whole process, so an allocation elsewhere can land
// in a trial; the pin takes the least of a few trials, each on fresh caches.
func TestDRAMFirstAccessAllocsOnlyTags(t *testing.T) {
	const capacity = 16 << 10
	const tagBytes = capacity / LineSize * 8
	least := uint64(math.MaxUint64)
	for trial := 0; trial < 5; trial++ {
		caches := make([]*DRAMCache, 16)
		for i := range caches {
			caches[i] = NewDRAMCache(capacity)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, d := range caches {
			d.Access(0)
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/uint64(len(caches)))
	}
	if least > tagBytes {
		t.Errorf("first access allocated %d bytes, want <= %d (the cache's tags)", least, tagBytes)
	}
}

// TestDRAMCacheShortLastChunk: a set count that is not a multiple of the
// chunk size leaves a short last chunk; its sets must still map and hold.
func TestDRAMCacheShortLastChunk(t *testing.T) {
	const nsets = 1<<dramChunkBits + 5
	d := NewDRAMCache(nsets * LineSize)
	last := uint64(nsets-1) * LineSize
	if d.Access(last) || !d.Access(last) {
		t.Error("last set of the short chunk did not hold its line")
	}
	// A line one capacity above 0 maps to set 0 and evicts it, leaving the
	// last set alone.
	d.Access(0)
	if d.Access(nsets*LineSize) || d.Access(0) {
		t.Error("lines one capacity apart did not conflict")
	}
	if !d.Access(last) {
		t.Error("a set-0 conflict evicted the last set")
	}
}

func TestNVMEntriesRoundTrip(t *testing.T) {
	n := NewNVM()
	n.Write(0x100, 7, 3)
	n.Write(0x108, 8, 4)
	n.Write(0x200, 9, 5)
	es := n.Entries()
	if len(es) != 3 {
		t.Fatalf("entries = %d", len(es))
	}
	n2 := NVMFromEntries(es)
	if n2.Len() != 3 {
		t.Fatalf("rebuilt len = %d", n2.Len())
	}
	for _, e := range es {
		w := n2.Peek(e.Addr)
		if w.Val != e.Val || w.Seq != e.Seq {
			t.Errorf("rebuilt[%#x] = %+v, want %+v", e.Addr, w, e)
		}
	}
	// Sequence guard semantics preserved.
	if n2.Write(0x100, 1, 2) {
		t.Error("stale write accepted after rebuild")
	}
}

func TestMemLen(t *testing.T) {
	m := NewMem()
	if m.Len() != 0 {
		t.Error("fresh mem not empty")
	}
	m.Store(8, 1)
	m.Store(8, 2) // same word
	m.Store(16, 3)
	if m.Len() != 2 {
		t.Errorf("len = %d, want 2", m.Len())
	}
}
