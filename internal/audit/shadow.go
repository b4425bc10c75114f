package audit

// The auditor's shadow of NVM is a paged word table, the same geometry as
// mem.NVM's backing: a word-aligned address indexes a page directory
// directly, and each page is a flat array of word shadows, so the per-event
// cost of the sequence-guard rules is two indexings and a page is the only
// thing the table ever allocates. Unaligned addresses and addresses beyond
// the direct window (never produced by the machine, but legal in a fuzzed
// stream) fall back to a per-word map keyed by the exact address.
const (
	shadowPageShift = 12
	shadowPageWords = 1 << shadowPageShift
	shadowPageMask  = shadowPageWords - 1
	// shadowDirectPages bounds the direct directory: 1 GB of address space.
	shadowDirectPages = 1 << 15
	// shadowDirStart is the directory the auditor carries inline (2 MB of
	// address space: every stack and the heap of the campaign workloads),
	// so most runs never allocate a directory.
	shadowDirStart = 64
)

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

type shadowPage [shadowPageWords]wordShadow

// shadowTable is the paged word table. Its zero value is not ready: init
// points the directory at the inline backing.
type shadowTable struct {
	pages []*shadowPage
	dir   [shadowDirStart]*shadowPage
	far   map[uint64]*wordShadow
}

func (t *shadowTable) init() { t.pages = t.dir[:] }

// direct returns addr's page number and offset when it lives in the direct
// window.
func direct(addr uint64) (pi, off uint64, ok bool) {
	wi := addr >> 3
	pi = wi >> shadowPageShift
	return pi, wi & shadowPageMask, addr&7 == 0 && pi < shadowDirectPages
}

// peek returns addr's shadow (zero when never written) without allocating.
func (t *shadowTable) peek(addr uint64) wordShadow {
	pi, off, ok := direct(addr)
	if !ok {
		if w := t.far[addr]; w != nil {
			return *w
		}
		return wordShadow{}
	}
	if pi < uint64(len(t.pages)) {
		if p := t.pages[pi]; p != nil {
			return p[off]
		}
	}
	return wordShadow{}
}

// at returns addr's shadow for update, materializing its page.
func (t *shadowTable) at(addr uint64) *wordShadow {
	pi, off, ok := direct(addr)
	if !ok {
		return t.farWord(addr)
	}
	if pi >= uint64(len(t.pages)) {
		grown := make([]*shadowPage, max(pi+1, 2*uint64(len(t.pages))))
		copy(grown, t.pages)
		t.pages = grown
	}
	p := t.pages[pi]
	if p == nil {
		p = new(shadowPage)
		t.pages[pi] = p
	}
	return &p[off]
}

func (t *shadowTable) farWord(addr uint64) *wordShadow {
	if t.far == nil {
		t.far = map[uint64]*wordShadow{}
	}
	w := t.far[addr]
	if w == nil {
		w = new(wordShadow)
		t.far[addr] = w
	}
	return w
}

// setVersion installs a new persisted version of addr, keeping its
// sync-persist watermark.
func (t *shadowTable) setVersion(addr, seq, val uint64, core int32, committed bool) {
	w := t.at(addr)
	w.seq, w.val, w.core, w.committed = seq, val, core, committed
}
