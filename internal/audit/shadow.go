package audit

import (
	"math/bits"

	"capri/internal/slab"
)

// The auditor's shadow of NVM is a paged word table of the same type as
// mem.NVM's backing, slab.Pages, in its own instance: a word-aligned address
// indexes the page directory directly, and each page holds one array per
// shadow field, so the per-event cost of the sequence-guard rules is two
// indexings and the table allocates only when it carves a page chunk or
// grows its directory. The sync-persist watermarks, which only
// synchronizing stores set, live beside the pages in a flat table keyed the
// same way. Only the containers are shared; every rule stays here.

// wordShadow is the auditor's shadow of one NVM word: the version the
// sequence guard holds (sequence, value and writer core). Whether a
// committed region's drain-family write installed it is a bit beside it
// (shadowTable.committed), which only the cross-core rules read. The zero
// value is a never-written word.
type wordShadow struct {
	seq  uint64
	val  uint64
	core int32
}

// shadowPage is the shadow of slab.PageWords words, one array per field: 20
// bytes and a bit a word, where a struct per word would pad to 32.
type shadowPage struct {
	seq       [slab.PageWords]uint64
	val       [slab.PageWords]uint64
	core      [slab.PageWords]int32
	committed [slab.PageWords / 64]uint64 // bit per word
}

// shadowTable is the paged word table and its sync-persist watermarks. Its
// zero value is empty. NewAuditor starts sync on syncFirst, so the first
// synchronizing store allocates nothing; the table must not be copied
// afterwards.
type shadowTable struct {
	pages     slab.Pages[shadowPage]
	sync      slab.Table[uint64] // newest applied synchronizing store's sequence, by key
	syncFirst slab.FirstSlots[uint64]
}

// key maps an address to its table word index, one index per exact
// address: an aligned address is its word number, and an unaligned one
// (never produced by the machine, but legal in a fuzzed stream) rotates its
// low bits to the top, past every aligned word and into the far pages.
func key(addr uint64) uint64 { return bits.RotateLeft64(addr, -3) }

// peek returns addr's shadow (zero when never written) without allocating.
func (t *shadowTable) peek(addr uint64) wordShadow {
	k := key(addr)
	if p := t.pages.Get(k >> slab.PageShift); p != nil {
		i := k & slab.PageMask
		return wordShadow{p.seq[i], p.val[i], p.core[i]}
	}
	return wordShadow{}
}

// committed reports whether addr's shadow version was persisted by a
// drain-family write of a committed region. It is apart from peek so that
// peek stays within the inliner's budget: every NVM event peeks, and only
// the two cross-core rules need the bit.
func (t *shadowTable) committed(addr uint64) bool {
	k := key(addr)
	p := t.pages.Get(k >> slab.PageShift)
	return p != nil && p.committed[k&slab.PageMask>>6]>>(k&63)&1 != 0
}

// setVersion installs a new persisted version of addr.
func (t *shadowTable) setVersion(addr, seq, val uint64, core int32, committed bool) {
	k := key(addr)
	p := t.pages.Owned(k >> slab.PageShift) // inlines; Own does not
	if p == nil {
		p = t.pages.Own(k >> slab.PageShift)
	}
	i := k & slab.PageMask
	p.seq[i], p.val[i], p.core[i] = seq, val, core
	bit := uint64(1) << (i & 63)
	if committed {
		p.committed[i>>6] |= bit
	} else {
		p.committed[i>>6] &^= bit
	}
}

// syncSeq returns addr's sync-persist watermark: the sequence of the newest
// synchronizing store applied to it, or zero.
func (t *shadowTable) syncSeq(addr uint64) uint64 {
	if s := t.sync.Get(key(addr)); s != nil {
		return *s
	}
	return 0
}

// setSyncSeq raises addr's sync-persist watermark to seq.
func (t *shadowTable) setSyncSeq(addr, seq uint64) {
	s, _ := t.sync.Insert(key(addr))
	*s = seq
}
