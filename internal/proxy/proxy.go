// Package proxy implements Capri's decoupled proxy buffer architecture
// (paper §5.2): the non-volatile front-end proxy buffer beside the L1 data
// cache, the dedicated per-core proxy data path, and the per-core back-end
// proxy buffers in the integrated memory controller. Together they realize
// the two-phase atomic store with undo+redo logging:
//
//   - Phase 1: every regular store allocates (or merges into) a front-end
//     entry holding the home address plus undo and redo images; the entry
//     travels the proxy path to the back-end. A region-boundary entry acts as
//     the commit marker and delimiter.
//   - Phase 2: once the back-end holds a region's boundary entry, it drains
//     the region's redo images to NVM, in region order.
//
// Register-checkpointing stores never allocate proxy entries; their values
// are staged in the dedicated register-file storage beside the front-end and
// travel with the boundary entry (§5.2.1 optimizations). Boundary entries for
// store-free regions are elided, likewise per §5.2.1.
//
// Both buffers are battery-backed: at a power failure their contents (plus
// entries in flight on the path, which the front-end logically retains until
// delivery) are exactly what the recovery protocol reads.
package proxy

import (
	"fmt"

	"capri/internal/isa"
	"capri/internal/slab"
)

// EntryKind distinguishes data entries from region-boundary markers.
type EntryKind uint8

// Entry kinds.
const (
	KindData EntryKind = iota
	KindBoundary
)

// Entry is one proxy buffer entry as a crash image holds it (paper Figure
// 5): the architectural record, with a boundary's payload inline. Data
// entries carry the word address with undo and redo values; boundary entries
// carry the commit metadata: the PC checkpoint (function and block of the
// *next* region), the stack pointer, and the register checkpoints staged
// during the region. The live hardware keeps the two kinds apart (Rec and
// Boundary); Unit.Harvest rebuilds entries at a power failure.
type Entry struct {
	Kind EntryKind

	// Data entry fields. Seq tracks the newest store merged into the entry
	// (the redo's version); FirstSeq tracks the oldest (the version right
	// after the undo image). Recovery must roll back whenever NVM holds any
	// version >= FirstSeq — a dirty writeback may have persisted an
	// intermediate store of the region, not just the final one.
	Addr, Undo, Redo, Seq, FirstSeq uint64
	Valid                           bool // redo valid-bit (§5.3); meaningful in the back-end

	// Boundary entry fields: the Boundary record's, plus its payloads.
	Region               uint64
	PCFunc, PCBlk, PCIdx int32
	SP                   uint64
	Ckpts                []RegCkpt
	Emits                []uint64 // program output staged during the committed region
	Halt                 bool
	Sync                 SyncRec
}

// Rec is one record of the front-end, path and back-end rings: a data entry,
// or the marker of a boundary whose commit metadata lives in the core's
// boundary table. It holds no pointers, so the rings move it as plain
// memory.
type Rec struct {
	Addr, Undo, Redo, Seq, FirstSeq uint64 // data entries only; see Entry
	bd                              uint32 // boundary markers: the boundary's table position
	Kind                            EntryKind
	Valid                           bool // redo valid-bit (§5.3); meaningful in the back-end
}

// Boundary is one region-boundary marker's commit metadata. (PCFunc, PCBlk,
// PCIdx) is the PC checkpoint — the exact resume point of the region that
// begins at this boundary. Its register checkpoints and output emits live in
// the core's payload arenas (CommittedRegion carries them).
type Boundary struct {
	Region               uint64 // region sequence number (per core)
	PCFunc, PCBlk, PCIdx int32
	SP                   uint64
	Halt                 bool // final marker of a halted thread
	// Sync is the synchronization-operation descriptor of the region this
	// boundary commits (zero Op: none). It persists into the core's recovery
	// record when the boundary completes phase 2.
	Sync SyncRec

	ckpt, emit   uint64 // arena positions of the payloads
	nckpt, nemit uint32
}

// bounds is one core's boundary table and payload arenas, shared by its
// front end (which adds boundaries), path and back end (which retires them).
// Boundaries and their payloads are added and retired in the same FIFO
// order, so every structure is a ring and a boundary's payload is one span
// of each arena.
type bounds struct {
	q     ring[Boundary]
	ckpts ring[RegCkpt]
	emits ring[uint64]
}

// at returns the boundary at table position pos (a Rec's bd).
func (t *bounds) at(pos uint32) *Boundary { return &t.q.buf[pos-uint32(t.q.base)] }

// ckptsOf and emitsOf return b's payloads; they stay readable until the next
// boundary is added.
func (t *bounds) ckptsOf(b *Boundary) []RegCkpt { return t.ckpts.span(b.ckpt, int(b.nckpt)) }
func (t *bounds) emitsOf(b *Boundary) []uint64  { return t.emits.span(b.emit, int(b.nemit)) }

// retire removes every boundary up to and including table position pos with
// its payloads. Those before pos are boundaries a crash harvest took off the
// wire (Path.DrainAll), which never reach the back end.
func (t *bounds) retire(pos uint32) {
	b := t.at(pos)
	t.ckpts.drop(int(b.ckpt + uint64(b.nckpt) - t.ckpts.first()))
	t.emits.drop(int(b.emit + uint64(b.nemit) - t.emits.first()))
	t.q.drop(int(pos-uint32(t.q.first())) + 1)
}

// appendEntries appends recs to dst as harvested entries, copying each
// boundary's payloads into windows carved from *ckpts and *emits (an empty
// payload stays nil).
func (t *bounds) appendEntries(dst []Entry, recs []Rec, ckpts *[]RegCkpt, emits *[]uint64) []Entry {
	for i := range recs {
		r := &recs[i]
		if r.Kind == KindData {
			dst = append(dst, Entry{Addr: r.Addr, Undo: r.Undo, Redo: r.Redo, Seq: r.Seq, FirstSeq: r.FirstSeq, Valid: r.Valid})
			continue
		}
		b := t.at(r.bd)
		e := Entry{
			Kind: KindBoundary, Region: b.Region,
			PCFunc: b.PCFunc, PCBlk: b.PCBlk, PCIdx: b.PCIdx, SP: b.SP, Halt: b.Halt, Sync: b.Sync,
		}
		if b.nckpt > 0 {
			e.Ckpts = slab.Carve(ckpts, int(b.nckpt), 0)
			copy(e.Ckpts, t.ckptsOf(b))
		}
		if b.nemit > 0 {
			e.Emits = slab.Carve(emits, int(b.nemit), 0)
			copy(e.Emits, t.emitsOf(b))
		}
		dst = append(dst, e)
	}
	return dst
}

// RegCkpt is one staged register checkpoint travelling with a boundary entry.
type RegCkpt struct {
	Reg isa.Reg
	Val uint64
}

// SyncRec is the per-core synchronization-operation descriptor travelling
// with a boundary entry (detectable recovery semantics, after Ben-David et
// al.'s detectability contract): the opcode, address, old and new memory
// values, and the store sequence number of the synchronization operation
// that committed the region. Because a sync op commits atomically with its
// own region, the descriptor's post-crash state is provably complete-or-
// absent: either the boundary drained and the recovery record holds the
// descriptor with its write persisted at Seq, or neither survives. Op zero
// means "no descriptor".
type SyncRec struct {
	Op   uint8
	Addr uint64
	Old  uint64
	New  uint64
	Seq  uint64
}

// FrontEnd is the front-end proxy buffer. Capacity is in entries (Table 1:
// 32 entries, ~4 KB). Entries drain toward the back-end at the proxy path
// rate; the core stalls only when the buffer is full (§5.2.1).
type FrontEnd struct {
	Capacity int
	// NoMerge disables same-region address merging (ablation).
	NoMerge bool
	// NoElide disables boundary elision for store-free regions (ablation).
	NoElide bool
	// FIFO of buffered records, carved at Capacity (NewUnits), so the
	// buffer never allocates.
	q ring[Rec]
	// bd is the core's boundary table, where AddBoundary puts each
	// boundary's metadata and payloads.
	bd *bounds

	// Register-file checkpoint staging for the current (uncommitted) region:
	// one slot per architectural register, carved at isa.NumRegs.
	staged []RegCkpt

	// stagedSync is the synchronization descriptor staged for the current
	// region (zero Op: none). Like staged register checkpoints, it lives in
	// the dedicated storage beside the front-end and travels with the
	// boundary entry.
	stagedSync SyncRec

	// Stats.
	Allocs    uint64
	Merges    uint64
	Boundary  uint64
	ElidedBds uint64
	Stalls    uint64 // allocation attempts that found the buffer full
}

// backStart is the back-end ring's carved capacity; flightCarveMax caps the
// path ring's. boundStart is the carved capacity of the boundary table and
// the back end's marks, ckptStart and emitStart the payload arenas', in
// elements: above the deepest any workload's boundaries queue except the
// contention targets' spin regions.
const (
	backStart      = 32
	flightCarveMax = 64
	boundStart     = 64
	ckptStart      = 128
	emitStart      = 64
)

// Unit is one core's proxy hardware: its front-end buffer, proxy path and
// back-end buffer, and the boundary table the three share.
type Unit struct {
	Front FrontEnd
	Path  Path
	Back  BackEnd
	bd    bounds
}

// NewUnits builds n cores' proxy hardware at architectural size, carving
// every core's rings from one backing per element type: the front-end ring at
// frontCap records, the staged-checkpoint storage at isa.NumRegs, and the
// path's packet ring at its in-flight bound (see flightCarve). These bounds
// are fixed, so none of those rings ever grows. The back-end's bound is
// backCap — the compiler's store threshold, up to 1024 in the figure sweeps —
// so its ring is carved at backStart instead, and the boundary table, the
// back end's marks and the payload arenas, which hold every boundary from the
// front end to the back end, at boundStart, ckptStart and emitStart; each
// doubles on demand rather than reserving its worst case for every core up
// front. An interval of zero means one. Every path consults win, the
// machine's one monitoring window (nil: none), which the caller owns.
func NewUnits(n, frontCap, backCap int, latency, interval uint64, win *Window) []Unit {
	if frontCap <= 0 || backCap <= 0 {
		panic(fmt.Sprintf("proxy: front-end capacity %d, back-end capacity %d", frontCap, backCap))
	}
	if interval == 0 {
		interval = 1
	}
	flight := flightCarve(latency, interval)
	units := make([]Unit, n)
	recs := make([]Rec, n*(frontCap+backStart))
	packets := make([]packet, n*flight)
	bds := make([]Boundary, n*boundStart)
	ckpts := make([]RegCkpt, n*(isa.NumRegs+ckptStart))
	emits := make([]uint64, n*emitStart)
	marks := make([]mark, n*boundStart)
	for i := range units {
		u := &units[i]
		u.bd = bounds{
			q:     ring[Boundary]{buf: slab.Carve(&bds, boundStart, 0)[:0]},
			ckpts: ring[RegCkpt]{buf: slab.Carve(&ckpts, ckptStart, 0)[:0]},
			emits: ring[uint64]{buf: slab.Carve(&emits, emitStart, 0)[:0]},
		}
		u.Front = FrontEnd{
			Capacity: frontCap,
			q:        ring[Rec]{buf: slab.Carve(&recs, frontCap, 0)[:0]},
			bd:       &u.bd,
			staged:   slab.Carve(&ckpts, isa.NumRegs, 0)[:0],
		}
		u.Path = Path{Latency: latency, Interval: interval, q: ring[packet]{buf: slab.Carve(&packets, flight, 0)[:0]}, win: win, bd: &u.bd}
		u.Back = BackEnd{
			Capacity: backCap,
			q:        ring[Rec]{buf: slab.Carve(&recs, backStart, 0)[:0]},
			marks:    ring[mark]{buf: slab.Carve(&marks, boundStart, 0)[:0]},
			bd:       &u.bd,
		}
	}
	return units
}

// Harvest appends the unit's battery-backed contents to dst as crash-image
// entries, oldest first: the back end's, then the wire's (Path.DrainAll),
// then the front end's. Each boundary's payloads are copied into windows
// carved from *ckpts and *emits, so the entries share nothing with the unit.
func (u *Unit) Harvest(dst []Entry, ckpts *[]RegCkpt, emits *[]uint64) []Entry {
	dst = u.bd.appendEntries(dst, u.Back.q.live(), ckpts, emits)
	dst = u.Path.DrainAll(dst, ckpts, emits)
	return u.bd.appendEntries(dst, u.Front.q.live(), ckpts, emits)
}

// HarvestLen returns how many entries, checkpoints and emits Harvest would
// copy out, at most.
func (u *Unit) HarvestLen() (entries, ckpts, emits int) {
	return u.Back.Len() + u.Path.InFlight() + u.Front.Len(), u.bd.ckpts.len(), u.bd.emits.len()
}

// Len returns the number of buffered entries.
func (f *FrontEnd) Len() int { return f.q.len() }

// AddStore records a regular store: undo/redo images for addr. Within the
// current region, an entry with the same address is merged (redo and seq
// updated; undo keeps the oldest image). Returns false if the buffer is full
// — the caller must drain and retry (core stall).
func (f *FrontEnd) AddStore(addr, undo, redo, seq uint64) bool {
	// Merge search only within the current region: stop at the most recent
	// boundary entry (§5.2.1: "does not merge proxy entries even if two
	// entries have the same address when they belong to different regions").
	live := f.q.live()
	for i := len(live) - 1; i >= 0 && !f.NoMerge; i-- {
		e := &live[i]
		if e.Kind == KindBoundary {
			break
		}
		if e.Addr == addr {
			e.Redo = redo
			e.Seq = seq
			f.Merges++
			return true
		}
	}
	if f.Len() >= f.Capacity {
		f.Stalls++
		return false
	}
	*f.q.add() = Rec{Addr: addr, Undo: undo, Redo: redo, Seq: seq, FirstSeq: seq, Valid: true}
	f.Allocs++
	return true
}

// StageCkpt records a register checkpoint for the current region in the
// dedicated register-file storage. Later stages of the same register within
// one region overwrite earlier ones.
func (f *FrontEnd) StageCkpt(r isa.Reg, val uint64) {
	for i := range f.staged {
		if f.staged[i].Reg == r {
			f.staged[i].Val = val
			return
		}
	}
	f.staged = append(f.staged, RegCkpt{Reg: r, Val: val})
}

// StageSync records the synchronization-operation descriptor of the current
// region. A region holds at most one sync op (every sync op is a mandatory
// region boundary), so a second stage before the boundary is a protocol
// error the machine never commits.
func (f *FrontEnd) StageSync(s SyncRec) { f.stagedSync = s }

// AddBoundary commits the current region: it appends a boundary marker whose
// table entry carries the staged register checkpoints, the staged output
// emits, and the next region's PC/SP. Store-free regions with no staged
// checkpoints and no emits may elide the entry (elided true), saving
// proxy-path traffic, unless force is set (halt markers are never elided).
// Returns ok=false on a full buffer.
//
// hadStores reports whether the region allocated any data entries.
func (f *FrontEnd) AddBoundary(region uint64, pcFunc, pcBlk, pcIdx int32, sp uint64, emits []uint64, hadStores, force, halt bool) (ok, elided bool) {
	if !hadStores && len(f.staged) == 0 && len(emits) == 0 && f.stagedSync.Op == 0 && !force && !f.NoElide {
		f.ElidedBds++
		return true, true
	}
	if f.Len() >= f.Capacity {
		f.Stalls++
		return false, false
	}
	t := f.bd
	*t.q.add() = Boundary{
		Region: region, PCFunc: pcFunc, PCBlk: pcBlk, PCIdx: pcIdx, SP: sp, Halt: halt, Sync: f.stagedSync,
		ckpt: t.ckpts.push(f.staged), nckpt: uint32(len(f.staged)),
		emit: t.emits.push(emits), nemit: uint32(len(emits)),
	}
	*f.q.add() = Rec{Kind: KindBoundary, bd: uint32(t.q.next() - 1)}
	f.stagedSync = SyncRec{}
	f.staged = f.staged[:0]
	f.Boundary++
	return true, false
}

// Peek returns the oldest buffered record without removing it. The pointer
// is valid until the next mutation; callers must not retain it. Peeking an
// empty buffer panics — check Len first.
func (f *FrontEnd) Peek() *Rec { return f.q.front() }

// BoundaryOf returns the table entry of boundary marker r, one of the
// unit's records; it stays valid until the next boundary is added.
func (f *FrontEnd) BoundaryOf(r *Rec) *Boundary { return f.bd.at(r.bd) }

// DropHead removes the oldest record once the machine has sent it on the
// path. Dropping an empty buffer panics — check Len first.
func (f *FrontEnd) DropHead() { f.q.drop(1) }
