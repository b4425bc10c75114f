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
	// FIFO across regions, boundary markers delimiting. PopRegion drops a
	// region without clearing its data, which stays in place for phase 2 to
	// read; the ring doubles from its carved start (NewUnits) only when it
	// is truly full.
	q ring[Rec]
	// marks holds the ring positions of the buffered boundary markers,
	// oldest first: region k's data is the run of records before marks[k]
	// and after marks[k-1].
	marks ring[uint64]
	// bd is the core's boundary table, which PopRegion retires boundaries
	// from.
	bd *bounds

	// Stats.
	Merges         uint64
	SkippedInvalid uint64
	ScanHits       uint64
	Overflow       uint64 // accepts rejected for lack of space (must be 0)
}

// Len returns the number of buffered entries (data + boundary).
func (b *BackEnd) Len() int { return b.q.len() }

// AcceptFrom appends a copy of a record arriving from the proxy path,
// merging data records with a matching address within the open (not yet
// delimited) region — the same-region merge rule of §5.2.1 applied at the
// buffer that actually holds whole regions. A merge refreshes the redo value,
// sequence, and valid bit while keeping the oldest undo image. Returns false
// — and counts an overflow, which the machine treats as a fatal invariant
// violation — if a data record does not fit.
func (b *BackEnd) AcceptFrom(r *Rec) bool {
	if r.Kind == KindData && !b.NoMerge {
		live := b.q.live()
		for i := len(live) - 1; i >= 0; i-- {
			x := &live[i]
			if x.Kind == KindBoundary {
				break
			}
			if x.Addr == r.Addr {
				x.Redo = r.Redo
				x.Seq = max(x.Seq, r.Seq)
				x.FirstSeq = min(x.FirstSeq, r.FirstSeq)
				x.Valid = r.Valid
				b.Merges++
				return true
			}
		}
	}
	// Boundary markers are always accepted: they are the delimiter that
	// lets the buffer drain, and the compiler's capacity invariant
	// guarantees region data fits.
	if r.Kind == KindData && b.q.len()-b.marks.len() >= b.Capacity {
		b.Overflow++
		return false
	}
	if r.Kind == KindBoundary {
		*b.marks.add() = b.q.next()
	}
	*b.q.add() = *r
	return true
}

// ScanInvalidate implements the writeback scan of §5.3.2: unset the redo
// valid-bit of every buffered data entry matching addr whose merged store
// sequence is not newer than the writeback's. (The sequence comparison is the
// cross-core-safe refinement of the paper's unconditional unset; see
// DESIGN.md.)
func (b *BackEnd) ScanInvalidate(addr uint64, wbSeq uint64) int {
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

// CommittedRegion describes one region ready for phase-2 processing: its
// data records, its boundary and the boundary's payloads.
type CommittedRegion struct {
	Data     []Rec
	Boundary *Boundary
	Ckpts    []RegCkpt
	Emits    []uint64
}

// Region returns (without removing) the k-th oldest complete region (0: the
// oldest), if that many are buffered. Everything it returns aliases the
// buffers — read-only use only. The fault model reads region 0 to identify
// the drain in flight; the drain scheduler books the newest.
func (b *BackEnd) Region(k int) (CommittedRegion, bool) {
	if k >= b.marks.len() {
		return CommittedRegion{}, false
	}
	marks := b.marks.live()
	start, end := b.q.first(), marks[k]
	if k > 0 {
		start = marks[k-1] + 1
	}
	bd := b.bd.at(b.q.at(end).bd)
	return CommittedRegion{
		Data:     b.q.span(start, int(end-start)),
		Boundary: bd,
		Ckpts:    b.bd.ckptsOf(bd),
		Emits:    b.bd.emitsOf(bd),
	}, true
}

// PopRegion removes and returns the oldest complete region (data entries up
// to and including a boundary marker), if one is present. This is the unit
// of the second phase of the atomic store. The region stays readable in
// place until the next AcceptFrom or AddBoundary — phase 2 consumes it
// immediately, so nothing is copied or allocated per region.
func (b *BackEnd) PopRegion() (CommittedRegion, bool) {
	r, ok := b.Region(0)
	if ok {
		b.bd.retire(b.q.at(*b.marks.front()).bd)
		b.q.drop(len(r.Data) + 1)
		b.marks.drop(1)
	}
	return r, ok
}
