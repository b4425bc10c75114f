package slab

import (
	"math/rand"
	"testing"
)

// homedAt returns n distinct keys whose first probe slot in a table of
// tableFirst slots is slot h.
func homedAt(h, n int) []uint64 {
	probe := Table[int]{}
	probe.grow()
	var keys []uint64
	for k := uint64(0); len(keys) < n; k++ {
		if probe.home(k) == h {
			keys = append(keys, k)
		}
	}
	return keys
}

// slotOf returns the slot k is stored in, or -1.
func slotOf[V any](t *Table[V], k uint64) int {
	for i, s := range t.slots {
		if s.used && s.key == k {
			return i
		}
	}
	return -1
}

// TestTableWrapAround runs one probe run across the end of the slot array:
// inserts wrap to slot 0, a refresh finds its key past the wrap, and a
// delete shifts the wrapped entries back so the run has no hole.
func TestTableWrapAround(t *testing.T) {
	last := tableFirst - 1
	keys := homedAt(last, 4)
	var tb Table[int]
	for i, k := range keys {
		v, ok := tb.Insert(k)
		if ok {
			t.Fatalf("key %d present before its insert", k)
		}
		*v = i
	}
	for i, k := range keys {
		if want := (last + i) % tableFirst; slotOf(&tb, k) != want {
			t.Fatalf("key %d in slot %d, want %d", i, slotOf(&tb, k), want)
		}
	}
	v, ok := tb.Insert(keys[3])
	if !ok || *v != 3 {
		t.Fatalf("refresh of the wrapped key: ok %v value %d", ok, *v)
	}
	*v = 30
	if !tb.Delete(keys[0]) || tb.Delete(keys[0]) {
		t.Fatal("delete of the run's head did not report presence exactly once")
	}
	// The run closes up: keys 1..3 move back one slot each, across the wrap.
	for i, k := range keys[1:] {
		if want := (last + i) % tableFirst; slotOf(&tb, k) != want {
			t.Errorf("after delete, key %d in slot %d, want %d", i+1, slotOf(&tb, k), want)
		}
	}
	if tb.slots[2].used {
		t.Error("delete left the run's old tail slot used")
	}
	if v := tb.Get(keys[3]); v == nil || *v != 30 {
		t.Errorf("refreshed value after delete = %v", v)
	}
	if tb.Get(keys[0]) != nil || tb.Len() != 3 {
		t.Errorf("deleted key found or Len %d, want 3", tb.Len())
	}
}

// TestTablePruneInPlace: Prune deletes exactly the matching entries without
// allocating or moving to a new slot array, and the survivors stay
// reachable through every probe run the deletions shortened.
func TestTablePruneInPlace(t *testing.T) {
	var tb Table[uint64]
	for k := uint64(0); k < 150; k++ {
		v, _ := tb.Insert(k * 8)
		*v = k
	}
	slots := &tb.slots[0]
	odd := func(v *uint64) bool { return *v%2 == 1 }
	if n := testing.AllocsPerRun(1, func() { tb.Prune(odd) }); n != 0 {
		t.Errorf("Prune made %.0f allocations", n)
	}
	if &tb.slots[0] != slots {
		t.Error("Prune moved the table to a new slot array")
	}
	if tb.Len() != 75 {
		t.Fatalf("Len after prune = %d, want 75", tb.Len())
	}
	for k := uint64(0); k < 150; k++ {
		if v := tb.Get(k * 8); (v != nil) != (k%2 == 0) || v != nil && *v != k {
			t.Errorf("key %d after prune: %v", k*8, v)
		}
	}
}

// TestTableGrowKeepsEntries: the slot array is made on the first insert
// and doubles only past three quarters full, keeping every entry.
func TestTableGrowKeepsEntries(t *testing.T) {
	var tb Table[uint64]
	if tb.Get(8) != nil || tb.Delete(8) || tb.slots != nil {
		t.Fatal("empty table found a key or allocated")
	}
	sizes := map[int]bool{}
	const n = 1000
	for k := uint64(1); k <= n; k++ {
		v, _ := tb.Insert(k << 32)
		*v = k
		sizes[len(tb.slots)] = true
		if 4*tb.Len() > 3*len(tb.slots) {
			t.Fatalf("%d entries in %d slots", tb.Len(), len(tb.slots))
		}
	}
	if len(tb.slots) != 2048 || len(sizes) != 4 {
		t.Errorf("slot array sizes %v, final %d; want 256 doubling to 2048", sizes, len(tb.slots))
	}
	if tb.Len() != n {
		t.Fatalf("Len = %d, want %d", tb.Len(), n)
	}
	for k := uint64(1); k <= n; k++ {
		if v := tb.Get(k << 32); v == nil || *v != k {
			t.Fatalf("key %d after growth: %v", k, v)
		}
	}
	tb.Clear()
	if tb.Len() != 0 || tb.Get(1<<32) != nil || len(tb.slots) != 2048 {
		t.Errorf("Clear left Len %d, slots %d", tb.Len(), len(tb.slots))
	}
}

// TestTableMatchesMap runs random inserts, deletes and prunes over a small
// key pool, so probe runs collide, wrap and close up, against a map.
func TestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tb Table[uint64]
	ref := map[uint64]uint64{}
	for step := 0; step < 20000; step++ {
		k := uint64(rng.Intn(400)) * 8
		switch op := rng.Intn(10); {
		case op < 6:
			v, ok := tb.Insert(k)
			if _, want := ref[k]; ok != want {
				t.Fatalf("step %d: Insert(%d) present %v, map %v", step, k, ok, want)
			}
			*v = uint64(step)
			ref[k] = uint64(step)
		case op < 9:
			_, want := ref[k]
			if got := tb.Delete(k); got != want {
				t.Fatalf("step %d: Delete(%d) = %v, map %v", step, k, got, want)
			}
			delete(ref, k)
		default:
			cut := uint64(max(step-500, 0))
			tb.Prune(func(v *uint64) bool { return *v < cut })
			for rk, rv := range ref {
				if rv < cut {
					delete(ref, rk)
				}
			}
		}
		if tb.Len() != len(ref) {
			t.Fatalf("step %d: Len %d, map %d", step, tb.Len(), len(ref))
		}
	}
	for k := uint64(0); k < 400*8; k += 8 {
		v := tb.Get(k)
		if rv, ok := ref[k]; (v != nil) != ok || ok && *v != rv {
			t.Fatalf("key %d: table %v, map %v %v", k, v, rv, ok)
		}
	}
}

// TestTableStartAllocsNothing: a table started on embedded first slots
// allocates nothing until it is three quarters full, then doubles as a
// table that made its own first slots does, keeping every entry.
func TestTableStartAllocsNothing(t *testing.T) {
	var first FirstSlots[uint64]
	var tb Table[uint64]
	const fill = 3 * tableFirst / 4
	if n := testing.AllocsPerRun(5, func() {
		first, tb = FirstSlots[uint64]{}, Table[uint64]{}
		tb.Start(&first)
		for k := uint64(0); k < fill; k++ {
			v, _ := tb.Insert(k * 8)
			*v = k
		}
	}); n != 0 {
		t.Fatalf("%d inserts into a started table made %.0f allocations, want 0", fill, n)
	}
	v, _ := tb.Insert(fill * 8)
	*v = fill
	if len(tb.slots) != 2*tableFirst || tb.Len() != fill+1 {
		t.Fatalf("after %d inserts: %d slots, %d entries; want %d, %d", fill+1, len(tb.slots), tb.Len(), 2*tableFirst, fill+1)
	}
	for k := uint64(0); k <= fill; k++ {
		if v := tb.Get(k * 8); v == nil || *v != k {
			t.Fatalf("key %d: %v after growth, want %d", k*8, v, k)
		}
	}
}

// TestTableReinsertAtLoadAllocsNothing: re-inserting keys a table already
// holds never grows it, also at three quarters full, where one new key
// would. The monitoring window and its audit mirror refresh present keys
// through Insert.
func TestTableReinsertAtLoadAllocsNothing(t *testing.T) {
	var first FirstSlots[uint64]
	var tb Table[uint64]
	const fill = 3 * tableFirst / 4
	present := 0
	n := testing.AllocsPerRun(1, func() {
		first, tb = FirstSlots[uint64]{}, Table[uint64]{}
		tb.Start(&first)
		for k := uint64(0); k < fill; k++ {
			tb.Insert(k * 8)
		}
		present = 0
		for k := uint64(0); k < fill; k++ {
			if _, ok := tb.Insert(k * 8); ok {
				present++
			}
		}
	})
	if n != 0 || len(tb.slots) != tableFirst || tb.Len() != fill || present != fill {
		t.Fatalf("re-inserting %d present keys: %.0f allocations, %d slots, %d entries, %d found; want 0, %d, %d, %d",
			fill, n, len(tb.slots), tb.Len(), present, tableFirst, fill, fill)
	}
}
