// Package mem models the memory devices of the Capri machine: the
// byte-addressable NVM main memory (with read/write queues and a
// write-pending queue in the persistent domain) and the hardware-managed
// direct-mapped off-chip DRAM cache in front of it — the "memory mode"
// arrangement of Table 1.
//
// Functional state is tracked at 8-byte word granularity. Every persisted
// word carries the global sequence number of the store that produced it; the
// sequence guard generalizes the paper's redo valid-bit across cores and is
// what makes recovery application order-insensitive (see DESIGN.md).
//
// Both NVM and the architectural memory are slab.Pages tables of
// fixed-size flat pages: word addresses index a page directory directly (no
// hashing), so the simulator's per-access cost is two array indexings
// instead of a Go map lookup, and a load, store or NVM write to a populated
// page allocates nothing. The table carves pages a few to a backing, doubles
// its directory as it grows, and keeps addresses beyond the direct window
// (pathological spread) in a far-page map. An NVM clone shares its pages
// copy-on-write: a page is copied only when one side first writes it. The
// package's fuzz target, FuzzStoreDifferential, drives random operation
// streams through this store and a plain map model side by side and
// compares them after every operation, far pages and clones included.
package mem

import (
	"math/bits"

	"capri/internal/slab"
)

// WordSize is the machine word size in bytes.
const WordSize = 8

// LineSize is the cache line size in bytes (Table 1: 64 B blocks).
const LineSize = 64

// LineAddr returns the line-aligned address containing addr.
func LineAddr(addr uint64) uint64 { return addr &^ (LineSize - 1) }

// WordAddr returns the word-aligned address containing addr.
func WordAddr(addr uint64) uint64 { return addr &^ (WordSize - 1) }

// Paged-backing geometry in word-address terms: a page is one of
// slab.Pages' pages of slab.PageWords words.
const (
	wordShift     = 3 // log2(WordSize)
	pageWordShift = slab.PageShift
	pageWords     = slab.PageWords
	pageWordMask  = slab.PageMask
)

// Word is a persisted word value plus the global store sequence number of its
// writer.
type Word struct {
	Val uint64
	Seq uint64
}

// bitmap marks a page's written words (a word is "persisted" once written,
// even if its value is zero — Len, Entries and Snapshot must distinguish
// written zeros from never-written words).
type bitmap [pageWords / 64]uint64

// mark sets off's bit and reports whether it was clear.
func (b *bitmap) mark(off uint64) bool {
	w, bit := off>>6, uint64(1)<<(off&63)
	if b[w]&bit != 0 {
		return false
	}
	b[w] |= bit
	return true
}

// eachUsed calls visit with the address and offset of every written word of
// page pi, in ascending order.
func (b *bitmap) eachUsed(pi uint64, visit func(addr, off uint64)) {
	base := pi << pageWordShift
	for i, w := range b {
		for ; w != 0; w &= w - 1 {
			off := uint64(i<<6 + bits.TrailingZeros64(w))
			visit((base+off)<<wordShift, off)
		}
	}
}

// nvmPage is one flat page of persisted words plus its presence bitmap.
type nvmPage struct {
	words [pageWords]Word
	used  bitmap
}

// NVM is the non-volatile main memory: the only device whose contents survive
// power failure (alongside the battery-backed proxy buffers). It holds the
// persisted program image and the register checkpoint storage.
type NVM struct {
	pages slab.Pages[nvmPage]
	count int // persisted words

	// writeFree is the write-pending queue's availability cycle: the device
	// timing the memory controller sees when it pushes a 64B line write. The
	// queue drains one line per device write latency, so its depth at any
	// instant is the backlog divided by that latency.
	writeFree uint64

	// Stats
	Writes     uint64 // 64B-equivalent write operations accepted
	WordWrites uint64 // word-granularity writes
	Reads      uint64
	StaleSkips uint64 // writes rejected by the sequence guard
}

// NewNVM returns an empty NVM image with the paged backing.
func NewNVM() *NVM {
	return &NVM{}
}

// BookLineWrite reserves one 64B line write in the write-pending queue at
// cycle now, where writeCost is the device's per-line write latency, and
// returns the queue depth (in pending line writes, including this one) right
// after booking. The returned depth feeds the WPQ-depth histogram; timing
// callers only need the booking side effect.
func (n *NVM) BookLineWrite(now, writeCost uint64) uint64 {
	if n.writeFree < now {
		n.writeFree = now
	}
	n.writeFree += writeCost
	if writeCost == 0 {
		return 1
	}
	return (n.writeFree - now + writeCost - 1) / writeCost
}

// Read returns the persisted value of the word at addr (zero if never
// written) along with its writer sequence.
func (n *NVM) Read(addr uint64) Word {
	n.Reads++
	return n.Peek(addr)
}

// Peek is Read without statistics, for verification code.
func (n *NVM) Peek(addr uint64) Word {
	wi := WordAddr(addr) >> wordShift
	if p := n.pages.Get(wi >> pageWordShift); p != nil {
		return p.words[wi&pageWordMask]
	}
	return Word{}
}

// Write persists val at addr if seq is newer than the current writer
// sequence. It reports whether the write was applied. This guard is the
// formal core of stale-read prevention: a redo drain or cache writeback
// carrying older data than what NVM already holds is dropped.
func (n *NVM) Write(addr uint64, val uint64, seq uint64) bool {
	wi := WordAddr(addr) >> wordShift
	p := n.pages.Owned(wi >> pageWordShift) // inlines; Own does not
	if p == nil {
		p = n.pages.Own(wi >> pageWordShift)
	}
	off := wi & pageWordMask
	if p.used.mark(off) {
		n.count++
	} else if p.words[off].Seq >= seq {
		n.StaleSkips++
		return false
	}
	p.words[off] = Word{Val: val, Seq: seq}
	n.WordWrites++
	return true
}

// Restore force-writes a word during crash recovery (undo application),
// bypassing the sequence guard. newSeq becomes the word's writer sequence.
func (n *NVM) Restore(addr uint64, val uint64, newSeq uint64) {
	wi := WordAddr(addr) >> wordShift
	p := n.pages.Own(wi >> pageWordShift)
	off := wi & pageWordMask
	if p.used.mark(off) {
		n.count++
	}
	p.words[off] = Word{Val: val, Seq: newSeq}
}

// WordEntry is one persisted word in exportable form.
type WordEntry struct {
	Addr uint64
	Val  uint64
	Seq  uint64
}

// Entries exports the persisted words sorted by ascending address, so
// crash-image serialization is deterministic: two serializations of the same
// machine state are byte-identical (recovery scans and golden comparisons
// must not depend on Go map iteration order).
func (n *NVM) Entries() []WordEntry {
	out := make([]WordEntry, 0, n.count)
	n.pages.Each(func(pi uint64, p *nvmPage) {
		p.used.eachUsed(pi, func(addr, off uint64) {
			out = append(out, WordEntry{Addr: addr, Val: p.words[off].Val, Seq: p.words[off].Seq})
		})
	})
	return out
}

// NVMFromEntries rebuilds an NVM image from exported entries.
func NVMFromEntries(entries []WordEntry) *NVM {
	n := NewNVM()
	for _, e := range entries {
		n.Restore(e.Addr, e.Val, e.Seq)
	}
	return n
}

// Snapshot copies the persisted word values (used by tests and the
// golden-state comparisons).
func (n *NVM) Snapshot() map[uint64]uint64 {
	out := make(map[uint64]uint64, n.count)
	n.pages.Each(func(pi uint64, p *nvmPage) {
		p.used.eachUsed(pi, func(addr, off uint64) { out[addr] = p.words[off].Val })
	})
	return out
}

// Len returns the number of persisted words.
func (n *NVM) Len() int { return n.count }

// Clone returns an independent copy of the NVM image (crash images and
// recovery) that shares n's pages copy-on-write: it allocates the copy and
// its page directory, and each side copies a page on its own first write to
// it, so neither ever sees the other's writes.
func (n *NVM) Clone() *NVM {
	c := *n
	c.pages = n.pages.Share()
	return &c
}

// memPage is one flat page of architectural words plus a presence bitmap.
type memPage struct {
	vals [pageWords]uint64
	used bitmap
}

// Mem is the architectural (volatile) memory image: the values loads actually
// observe during execution, maintained at word granularity. It vanishes at a
// power failure; recovery rebuilds it from NVM. Its backing is the same page
// table as NVM's.
type Mem struct {
	pages slab.Pages[memPage]
	count int
}

// NewMem returns an empty architectural memory with the paged backing.
func NewMem() *Mem {
	return &Mem{}
}

// MemFromNVM builds the architectural memory image a recovery produces: every
// persisted word's value. This is the allocation-lean page-copy path
// recovery uses instead of going through a map snapshot.
func MemFromNVM(n *NVM) *Mem {
	return &Mem{count: n.count, pages: slab.Copy(&n.pages, func(dst *memPage, src *nvmPage) {
		dst.used = src.used
		for off := range src.words {
			dst.vals[off] = src.words[off].Val
		}
	})}
}

// Load returns the word at addr.
func (m *Mem) Load(addr uint64) uint64 {
	wi := WordAddr(addr) >> wordShift
	if p := m.pages.Get(wi >> pageWordShift); p != nil {
		return p.vals[wi&pageWordMask]
	}
	return 0
}

// Store writes the word at addr and returns the previous value (the undo
// image the front-end proxy captures).
func (m *Mem) Store(addr uint64, val uint64) (old uint64) {
	wi := WordAddr(addr) >> wordShift
	p := m.pages.Owned(wi >> pageWordShift) // inlines; Own does not
	if p == nil {
		p = m.pages.Own(wi >> pageWordShift)
	}
	off := wi & pageWordMask
	if p.used.mark(off) {
		m.count++
	}
	old, p.vals[off] = p.vals[off], val
	return old
}

// Snapshot copies the current word map.
func (m *Mem) Snapshot() map[uint64]uint64 {
	out := make(map[uint64]uint64, m.count)
	m.pages.Each(func(pi uint64, p *memPage) {
		p.used.eachUsed(pi, func(addr, off uint64) { out[addr] = p.vals[off] })
	})
	return out
}

// Len returns the number of populated words.
func (m *Mem) Len() int { return m.count }
