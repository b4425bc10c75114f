package audit

import (
	"math/bits"

	"capri/internal/slab"
)

// The auditor's shadow of NVM is a paged word table of the same type as
// mem.NVM's backing, slab.Pages, in its own instance: a word-aligned address
// indexes the page directory directly, and each page is a flat array of word
// shadows, so the per-event cost of the sequence-guard rules is two
// indexings and the table allocates only when it carves a page chunk or
// grows its directory. Only the container is shared; every rule stays here.

// wordShadow is the auditor's shadow of one NVM word: the version the
// sequence guard holds (sequence, value, writer core, and whether a
// committed region's drain-family write installed it) and the newest
// applied synchronizing store's sequence (sync-persist-order). The zero
// value is a never-written word.
type wordShadow struct {
	seq       uint64
	val       uint64
	syncSeq   uint64
	core      int32
	committed bool // version persisted by a drain-family write of a committed region
}

type shadowPage [slab.PageWords]wordShadow

// shadowTable is the paged word table. Its zero value is empty.
type shadowTable struct{ pages slab.Pages[shadowPage] }

// key maps an address to its table word index, one index per exact
// address: an aligned address is its word number, and an unaligned one
// (never produced by the machine, but legal in a fuzzed stream) rotates its
// low bits to the top, past every aligned word and into the far pages.
func key(addr uint64) uint64 { return bits.RotateLeft64(addr, -3) }

// peek returns addr's shadow (zero when never written) without allocating.
func (t *shadowTable) peek(addr uint64) wordShadow {
	k := key(addr)
	if p := t.pages.Get(k >> slab.PageShift); p != nil {
		return p[k&slab.PageMask]
	}
	return wordShadow{}
}

// at returns addr's shadow for update, materializing its page.
func (t *shadowTable) at(addr uint64) *wordShadow {
	k := key(addr)
	return &t.pages.At(k >> slab.PageShift)[k&slab.PageMask]
}

// setVersion installs a new persisted version of addr, keeping its
// sync-persist watermark.
func (t *shadowTable) setVersion(addr, seq, val uint64, core int32, committed bool) {
	w := t.at(addr)
	w.seq, w.val, w.core, w.committed = seq, val, core, committed
}
