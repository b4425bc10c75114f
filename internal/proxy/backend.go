package proxy

// BackEnd is one core's back-end proxy buffer inside the integrated memory
// controller (paper §5.2.2). Its capacity equals the compiler's store
// threshold, guaranteeing a whole region always fits — the architectural half
// of the compiler/architecture interplay. It holds entries of one or more
// regions; it drains a region's redo data to NVM only after that region's
// boundary entry arrives, in region order, skipping entries whose redo
// valid-bit has been unset by a matching dirty cache writeback (§5.3).
type BackEnd struct {
	Capacity int
	// NoMerge disables same-region address merging (ablation).
	NoMerge bool
	// FIFO across regions, boundary entries delimiting. PopRegion drops a
	// region without clearing its data, which stays in place for phase 2 to
	// read; the ring doubles from its carved start (NewUnits) only when it
	// is truly full.
	q     ring[Entry]
	ndata int // data entries among the live ones (space accounting)

	// Stats.
	Received       uint64
	Merges         uint64
	RedoWrites     uint64
	SkippedInvalid uint64
	Scans          uint64
	ScanHits       uint64
	Overflow       uint64 // accepts rejected for lack of space (must be 0)
}

// SpaceFor reports whether a data entry can be accepted. Boundary entries are
// always accepted (they are the delimiter that lets the buffer drain; the
// capacity invariant of the compiler guarantees region data fits).
func (b *BackEnd) SpaceFor(e Entry) bool {
	if e.Kind == KindBoundary {
		return true
	}
	return b.ndata < b.Capacity
}

// Len returns the number of buffered entries (data + boundary).
func (b *BackEnd) Len() int { return b.q.len() }

// Accept appends an entry arriving from the proxy path, merging data entries
// with a matching address within the open (not yet delimited) region — the
// same-region merge rule of §5.2.1 applied at the buffer that actually holds
// whole regions. A merge refreshes the redo value, sequence, and valid bit
// while keeping the oldest undo image. Returns false — and counts an
// overflow, which the machine treats as a fatal invariant violation — if a
// data entry does not fit.
func (b *BackEnd) Accept(e Entry) bool { return b.AcceptFrom(&e) }

// AcceptFrom is Accept without the by-value argument copy; the entry is
// copied exactly once, into the buffer (see Path.DeliverEach — the arrival
// loop hands out pointers into the wire buffer).
func (b *BackEnd) AcceptFrom(e *Entry) bool {
	if e.Kind == KindData && !b.NoMerge {
		live := b.q.live()
		for i := len(live) - 1; i >= 0; i-- {
			x := &live[i]
			if x.Kind == KindBoundary {
				break
			}
			if x.Addr == e.Addr {
				x.Redo = e.Redo
				if e.Seq > x.Seq {
					x.Seq = e.Seq
				}
				if e.FirstSeq < x.FirstSeq {
					x.FirstSeq = e.FirstSeq
				}
				x.Valid = e.Valid
				b.Received++
				b.Merges++
				return true
			}
		}
	}
	if !b.SpaceFor(*e) {
		b.Overflow++
		return false
	}
	b.Received++
	*b.q.add() = *e
	if e.Kind == KindData {
		b.ndata++
	}
	return true
}

// ScanInvalidate implements the writeback scan of §5.3.2: unset the redo
// valid-bit of every buffered data entry matching addr whose merged store
// sequence is not newer than the writeback's. (The sequence comparison is the
// cross-core-safe refinement of the paper's unconditional unset; see
// DESIGN.md.)
func (b *BackEnd) ScanInvalidate(addr uint64, wbSeq uint64) int {
	b.Scans++
	n := 0
	live := b.q.live()
	for i := range live {
		e := &live[i]
		if e.Kind == KindData && e.Addr == addr && e.Valid && e.Seq <= wbSeq {
			e.Valid = false
			b.ScanHits++
			n++
		}
	}
	return n
}

// CommittedRegion describes one region ready for (or found during recovery
// in) phase-2 processing.
type CommittedRegion struct {
	Data     []Entry
	Boundary Entry
}

// PopRegion removes and returns the oldest complete region (data entries up
// to and including a boundary entry), if one is present. This is the unit of
// the second phase of the atomic store. The returned Data slice aliases the
// ring's now-dead slots and stays valid until the next Accept — phase 2
// consumes it immediately, so nothing is copied or allocated per region.
func (b *BackEnd) PopRegion() (CommittedRegion, bool) {
	live := b.q.live()
	for i := range live {
		if live[i].Kind == KindBoundary {
			r := CommittedRegion{Data: live[:i:i], Boundary: live[i]}
			// data entries carry no Ckpts/Emits, so only the boundary
			// needs releasing
			live[i].release()
			b.q.drop(i + 1)
			b.ndata -= i
			return r, true
		}
	}
	return CommittedRegion{}, false
}

// OldestRegion returns (without removing) the oldest complete region's data
// entries and boundary. The data slice aliases the buffer — read-only use
// only. It is how the fault model identifies the drain in flight: the
// region a booked-but-incomplete phase-2 drain is writing.
func (b *BackEnd) OldestRegion() (data []Entry, boundary *Entry, ok bool) {
	live := b.q.live()
	for i := range live {
		if live[i].Kind == KindBoundary {
			return live[:i], &live[i], true
		}
	}
	return nil, nil, false
}

// HasRegion reports whether a complete region is buffered.
func (b *BackEnd) HasRegion() bool {
	_, _, ok := b.OldestRegion()
	return ok
}

// Entries returns the buffered entries oldest-first (recovery reads them
// after a crash).
func (b *BackEnd) Entries() []Entry { return b.q.live() }
