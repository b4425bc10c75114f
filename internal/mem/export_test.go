package mem

// FromSnapshot builds architectural memory from a word map, the inverse of
// Snapshot.
func FromSnapshot(s map[uint64]uint64) *Mem {
	m := NewMem()
	for a, v := range s {
		m.Store(a, v)
	}
	return m
}
