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

// Entry is one proxy buffer entry (paper Figure 5). Data entries carry the
// word address with undo and redo values; boundary entries carry the commit
// metadata: the PC checkpoint (function and block of the *next* region), the
// stack pointer, and the register checkpoints staged during the region.
type Entry struct {
	Kind EntryKind

	// Data entry fields. Seq tracks the newest store merged into the entry
	// (the redo's version); FirstSeq tracks the oldest (the version right
	// after the undo image). Recovery must roll back whenever NVM holds any
	// version >= FirstSeq — a dirty writeback may have persisted an
	// intermediate store of the region, not just the final one.
	Addr     uint64
	Undo     uint64
	Redo     uint64
	Seq      uint64
	FirstSeq uint64
	Valid    bool // redo valid-bit (§5.3); meaningful in the back-end

	// Boundary entry fields. (PCFunc, PCBlk, PCIdx) is the PC checkpoint —
	// the exact resume point of the region that begins at this boundary.
	Region uint64 // region sequence number (per core)
	PCFunc int32
	PCBlk  int32
	PCIdx  int32
	SP     uint64
	Ckpts  []RegCkpt
	Emits  []uint64 // program output staged during the committed region
	Halt   bool     // final marker of a halted thread
	// Sync is the synchronization-operation descriptor of the region this
	// boundary commits (zero Op: none). It persists into the core's recovery
	// record when the boundary completes phase 2.
	Sync SyncRec
}

// release drops a dead entry's Ckpts/Emits references, so its buffer slot
// does not retain backings the front end may recycle; stale scalars in dead
// slots are never read.
func (e *Entry) release() { e.Ckpts, e.Emits = nil, nil }

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
	// FIFO of buffered entries, carved at Capacity (NewUnits), so the
	// buffer never allocates.
	q ring[Entry]

	// Register-file checkpoint staging for the current (uncommitted) region:
	// one slot per architectural register, carved at isa.NumRegs.
	staged []RegCkpt

	// stagedSync is the synchronization descriptor staged for the current
	// region (zero Op: none). Like staged register checkpoints, it lives in
	// the dedicated storage beside the front-end and travels with the
	// boundary entry.
	stagedSync SyncRec

	// Bounded freelists for boundary-entry slice backings, carved at their
	// bound. AddBoundary is the simulator's hottest allocation site (one
	// Ckpts and/or Emits slice per committed region); the machine returns
	// the backings via Recycle once phase 2 has folded the boundary into the
	// recovery record. On a pool miss the backing is carved from a chunk
	// (full-slice cap, so a recycled backing that must grow reallocates
	// instead of clobbering a neighbour).
	ckptPool [][]RegCkpt
	emitPool [][]uint64
	ckptSlab []RegCkpt
	emitSlab []uint64

	// Stats.
	Allocs    uint64
	Merges    uint64
	Boundary  uint64
	ElidedBds uint64
	Stalls    uint64 // allocation attempts that found the buffer full
}

// poolCap bounds each backing freelist; payloadChunk is the size, in
// elements, of the chunks pool misses are carved from; backStart is the
// back-end ring's carved capacity; flightCarveMax caps the path ring's.
const (
	poolCap        = 64
	payloadChunk   = 256
	backStart      = 32
	flightCarveMax = 64
)

// Unit is one core's proxy hardware: its front-end buffer, proxy path and
// back-end buffer.
type Unit struct {
	Front FrontEnd
	Path  Path
	Back  BackEnd
}

// NewUnits builds n cores' proxy hardware at architectural size, carving
// every core's rings from one backing per element type: the front-end ring at
// frontCap entries, the staged-checkpoint storage at isa.NumRegs, both
// recycle pools at poolCap, and the path's packet ring at its in-flight bound
// (see flightCarve). These bounds are fixed, so none of those rings ever
// grows. The back-end's bound is backCap — the compiler's store threshold, up
// to 1024 in the figure sweeps — so its ring is carved at backStart entries
// instead and doubles on demand rather than reserving the threshold for every
// core up front. An interval of zero means one. Every path consults win, the
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
	entries := make([]Entry, n*(frontCap+backStart))
	packets := make([]packet, n*flight)
	staged := make([]RegCkpt, n*isa.NumRegs)
	ckptPool := make([][]RegCkpt, n*poolCap)
	emitPool := make([][]uint64, n*poolCap)
	for i := range units {
		u := &units[i]
		u.Front = FrontEnd{
			Capacity: frontCap,
			q:        ring[Entry]{buf: slab.Carve(&entries, frontCap, 0)[:0]},
			staged:   slab.Carve(&staged, isa.NumRegs, 0)[:0],
			ckptPool: slab.Carve(&ckptPool, poolCap, 0)[:0],
			emitPool: slab.Carve(&emitPool, poolCap, 0)[:0],
		}
		u.Path = Path{Latency: latency, Interval: interval, q: ring[packet]{buf: slab.Carve(&packets, flight, 0)[:0]}, win: win}
		u.Back = BackEnd{Capacity: backCap, q: ring[Entry]{buf: slab.Carve(&entries, backStart, 0)[:0]}}
	}
	return units
}

// carveCopy copies src into a backing carved from *s. The backing's capacity
// is rounded up to a power of two (at least 4), so once recycled it usually
// fits the next region's payload too.
func carveCopy[T any](s *[]T, src []T) []T {
	c := 4
	for c < len(src) {
		c *= 2
	}
	return append(slab.Carve(s, c, payloadChunk)[:0], src...)
}

// Full reports whether a new entry cannot be allocated.
func (f *FrontEnd) Full() bool { return f.Len() >= f.Capacity }

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
	if f.Full() {
		f.Stalls++
		return false
	}
	*f.q.add() = Entry{
		Kind: KindData, Addr: addr, Undo: undo, Redo: redo,
		Seq: seq, FirstSeq: seq, Valid: true,
	}
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

// StagedLen returns the number of staged register checkpoints.
func (f *FrontEnd) StagedLen() int { return len(f.staged) }

// StageSync records the synchronization-operation descriptor of the current
// region. A region holds at most one sync op (every sync op is a mandatory
// region boundary), so a second stage before the boundary is a protocol
// error the machine never commits.
func (f *FrontEnd) StageSync(s SyncRec) { f.stagedSync = s }

// AddBoundary commits the current region: it appends a boundary entry
// carrying the staged register checkpoints, the staged output emits, and the
// next region's PC/SP. Store-free regions with no staged checkpoints and no
// emits may elide the entry (elided true), saving proxy-path traffic, unless
// force is set (halt markers are never elided). Returns ok=false on a full
// buffer.
//
// hadStores reports whether the region allocated any data entries.
func (f *FrontEnd) AddBoundary(region uint64, pcFunc, pcBlk, pcIdx int32, sp uint64, emits []uint64, hadStores, force, halt bool) (ok, elided bool) {
	if !hadStores && len(f.staged) == 0 && len(emits) == 0 && f.stagedSync.Op == 0 && !force && !f.NoElide {
		f.ElidedBds++
		return true, true
	}
	if f.Full() {
		f.Stalls++
		return false, false
	}
	e := Entry{
		Kind: KindBoundary, Region: region,
		PCFunc: pcFunc, PCBlk: pcBlk, PCIdx: pcIdx, SP: sp, Halt: halt,
		Sync: f.stagedSync,
	}
	f.stagedSync = SyncRec{}
	if len(emits) > 0 {
		if n := len(f.emitPool); n > 0 {
			e.Emits = append(f.emitPool[n-1][:0], emits...)
			f.emitPool = f.emitPool[:n-1]
		} else {
			e.Emits = carveCopy(&f.emitSlab, emits)
		}
	}
	if len(f.staged) > 0 {
		if n := len(f.ckptPool); n > 0 {
			e.Ckpts = append(f.ckptPool[n-1][:0], f.staged...)
			f.ckptPool = f.ckptPool[:n-1]
		} else {
			e.Ckpts = carveCopy(&f.ckptSlab, f.staged)
		}
		f.staged = f.staged[:0]
	}
	*f.q.add() = e
	f.Boundary++
	return true, false
}

// Recycle returns a consumed boundary entry's slice backings to the pool
// AddBoundary draws from. The caller must guarantee no live Entry copy still
// references them — the machine calls this only after phase 2 has folded the
// boundary into the recovery record and every buffer slot holding a copy has
// been cleared. The pools are bounded; excess backings fall to the GC.
func (f *FrontEnd) Recycle(ckpts []RegCkpt, emits []uint64) {
	if cap(ckpts) > 0 && len(f.ckptPool) < poolCap {
		f.ckptPool = append(f.ckptPool, ckpts[:0])
	}
	if cap(emits) > 0 && len(f.emitPool) < poolCap {
		f.emitPool = append(f.emitPool, emits[:0])
	}
}

// DiscardStaged drops staged checkpoints (power failure hits before the
// region commits — the staging storage is logically part of the uncommitted
// region). The staged values are non-volatile but recovery ignores them, so
// the machine clears them when rebuilding.
func (f *FrontEnd) DiscardStaged() {
	f.staged = f.staged[:0]
	f.stagedSync = SyncRec{}
}

// Peek returns the oldest buffered entry without removing it. The pointer is
// valid until the next mutation; callers must not retain it. Peeking an empty
// buffer panics — check Len first.
func (f *FrontEnd) Peek() *Entry { return f.q.front() }

// Pop removes and returns the oldest entry for transmission on the proxy
// path.
func (f *FrontEnd) Pop() (Entry, bool) {
	if f.q.len() == 0 {
		return Entry{}, false
	}
	e := *f.q.front()
	f.DropHead()
	return e, true
}

// DropHead removes the oldest entry after its contents have been copied out —
// the zero-copy counterpart of Pop (the machine's drain loop peeks the head,
// sends it straight into a path packet, then drops it). Dropping an empty
// buffer panics — check Len first.
func (f *FrontEnd) DropHead() {
	f.q.front().release()
	f.q.drop(1)
}

// Entries returns the buffered entries oldest-first (recovery reads them
// after a crash).
func (f *FrontEnd) Entries() []Entry { return f.q.live() }

// Staged returns the currently staged register checkpoints (inspection).
func (f *FrontEnd) Staged() []RegCkpt { return f.staged }
