package slab

import "math/bits"

// Table geometry: a table's slot array is allocated at tableFirst slots on
// its first insert and doubles when an insert would take it past three
// quarters full (the load past which linear probing's misses get long).
const tableFirst = 256

// Table is an open-addressed hash table from uint64 keys to values of type
// V: a power-of-two slot array probed linearly from a Fibonacci hash of the
// key, with backward-shift deletion, so no tombstones accumulate and a
// long-lived table with steady churn never rehashes. The slot array is the
// table's only allocation; it is made on the first insert and doubled only
// when full (three quarters of its slots used). The zero value is an empty table. A Table is not safe for
// concurrent use.
type Table[V any] struct {
	slots []tableSlot[V]
	mask  int   // len(slots) - 1
	shift uint8 // 64 - log2(len(slots))
	n     int   // used slots
}

type tableSlot[V any] struct {
	key  uint64
	val  V
	used bool
}

// home returns k's first probe slot.
func (t *Table[V]) home(k uint64) int { return int((k * 0x9E3779B97F4A7C15) >> t.shift) }

// Get returns the value stored under k, or nil if there is none. The
// pointer is valid until the next Insert, Delete, Prune or Clear.
func (t *Table[V]) Get(k uint64) *V {
	if t.n > 0 {
		for i := t.home(k); t.slots[i].used; i = (i + 1) & t.mask {
			if t.slots[i].key == k {
				return &t.slots[i].val
			}
		}
	}
	return nil
}

// Insert returns the value stored under k, adding a zero one first if there
// is none; ok reports whether k was already present. The pointer is valid
// until the next Insert, Delete, Prune or Clear.
func (t *Table[V]) Insert(k uint64) (v *V, ok bool) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	i := t.home(k)
	for ; t.slots[i].used; i = (i + 1) & t.mask {
		if t.slots[i].key == k {
			return &t.slots[i].val, true
		}
	}
	t.slots[i].key, t.slots[i].used = k, true
	t.n++
	return &t.slots[i].val, false
}

// grow allocates the first slot array, or doubles it and re-inserts every
// entry.
func (t *Table[V]) grow() {
	old := t.slots
	size := tableFirst
	if len(old) > 0 {
		size = 2 * len(old)
	}
	t.slots, t.mask = make([]tableSlot[V], size), size-1
	t.shift = uint8(65 - bits.Len(uint(size)))
	for _, s := range old {
		if s.used {
			i := t.home(s.key)
			for t.slots[i].used {
				i = (i + 1) & t.mask
			}
			t.slots[i] = s
		}
	}
}

// Delete removes k, reporting whether it was present.
func (t *Table[V]) Delete(k uint64) bool {
	if t.n == 0 {
		return false
	}
	for i := t.home(k); t.slots[i].used; i = (i + 1) & t.mask {
		if t.slots[i].key == k {
			t.remove(i)
			return true
		}
	}
	return false
}

// remove empties slot i by backward shift: every later entry of its probe
// run that may live at the hole (its home is not cyclically after the hole)
// moves back into it, leaving a new hole, until the run ends.
func (t *Table[V]) remove(i int) {
	for j := (i + 1) & t.mask; t.slots[j].used; j = (j + 1) & t.mask {
		if (j-t.home(t.slots[j].key))&t.mask >= (j-i)&t.mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = tableSlot[V]{}
	t.n--
}

// Prune deletes, in place, every entry for which drop returns true.
func (t *Table[V]) Prune(drop func(v *V) bool) {
	if t.n == 0 {
		return
	}
	// Scan one lap from an empty slot, so no probe run wraps past the end
	// of the lap: a backward shift only ever pulls in entries the scan has
	// yet to visit, and re-examines the slot it refilled.
	start := 0
	for t.slots[start].used {
		start++
	}
	for k := 0; k < len(t.slots); {
		i := (start + k) & t.mask
		if s := &t.slots[i]; s.used && drop(&s.val) {
			t.remove(i)
			continue
		}
		k++
	}
}

// Len returns the number of entries.
func (t *Table[V]) Len() int { return t.n }

// Clear deletes every entry, keeping the slot array.
func (t *Table[V]) Clear() {
	clear(t.slots)
	t.n = 0
}
