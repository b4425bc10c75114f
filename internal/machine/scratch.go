package machine

// lineTable is an epoch-stamped open-addressing set of 64B line addresses —
// the drain scheduler's distinct-line dedup scratch (scheduleDrain,
// memsys.go). It replaces the old linear-scan-plus-map-spill scheme with one
// structure that is O(1) per probe at every region size and allocates
// nothing in steady state: clearing is an epoch bump, and the slot array is
// reused across every region of a run, growing (rarely) to the largest
// region ever scheduled.
type lineTable struct {
	slots []lineSlot
	shift uint   // 64 - log2(len(slots)), for Fibonacci hashing
	epoch uint32 // current membership generation
	n     int    // entries inserted this epoch
}

type lineSlot struct {
	line  uint64
	epoch uint32
}

// lineTableSlots is a table's starting slot count: regions of up to half as
// many distinct lines never grow it.
const (
	lineTableBits  = 7
	lineTableSlots = 1 << lineTableBits
)

// carveLineTable returns an empty table over lineTableSlots zeroed slots
// (New carves every core's from one backing).
func carveLineTable(slots []lineSlot) lineTable {
	return lineTable{slots: slots, shift: 64 - lineTableBits}
}

// reset begins a new membership epoch without touching the slots.
func (t *lineTable) reset() {
	t.n = 0
	t.epoch++
	if t.epoch == 0 {
		// Epoch counter wrapped: stale stamps from 4G resets ago could alias
		// the new epoch, so clear the slots for real this once.
		for i := range t.slots {
			t.slots[i] = lineSlot{}
		}
		t.epoch = 1
	}
	if len(t.slots) == 0 {
		t.slots, t.shift = make([]lineSlot, lineTableSlots), 64-lineTableBits
	}
}

// add inserts line, reporting whether it was absent this epoch.
func (t *lineTable) add(line uint64) bool {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	i := (line * 0x9e3779b97f4a7c15) >> t.shift
	for {
		s := &t.slots[i]
		if s.epoch != t.epoch {
			s.line, s.epoch = line, t.epoch
			t.n++
			return true
		}
		if s.line == line {
			return false
		}
		i = (i + 1) & mask
	}
}

// grow doubles the slot array, reinserting the current epoch's entries.
func (t *lineTable) grow() {
	old := t.slots
	epoch := t.epoch
	t.slots = make([]lineSlot, 2*len(old))
	t.shift--
	mask := uint64(len(t.slots) - 1)
	for _, s := range old {
		if s.epoch != epoch {
			continue
		}
		i := (s.line * 0x9e3779b97f4a7c15) >> t.shift
		for t.slots[i].epoch == epoch {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
