// Package cache models the on-chip cache hierarchy of the Capri machine:
// per-core L1 data caches and a shared L2, with LRU set-associative timing
// and dirty-line tracking. Caches are timing/traffic structures — functional
// values live in the architectural memory — but they carry per-line store
// sequence metadata so that evicted dirty lines generate writebacks tagged
// with the newest store that dirtied them, which is what the back-end proxy's
// valid-bit scan keys on (paper §5.3).
package cache

import (
	"capri/internal/mem"
	"capri/internal/slab"
)

// wordsPerLine is the number of words a 64 B line holds (and therefore the
// maximum dirty words one writeback can carry).
const wordsPerLine = mem.LineSize / mem.WordSize

// Writeback describes a dirty line eviction travelling toward the memory
// controller. Writebacks returned by Access and Invalidate point into a
// per-cache scratch buffer that is reused by the next Access/Invalidate on
// the same cache — consume (or copy) them before touching that cache again.
type Writeback struct {
	Line  uint64   // line address
	Words []uint64 // dirty word addresses within the line (aliases buf)
	Seq   uint64   // newest store sequence among the dirty words
	Core  int      // core whose store most recently dirtied the line

	buf [wordsPerLine]uint64
}

// fill populates the writeback from an evicted dirty line without heap
// allocation: Words aliases the writeback's own fixed-size buffer.
func (wb *Writeback) fill(l *line) {
	wb.Line, wb.Seq, wb.Core = l.tag, l.seq, l.core
	n := 0
	for w := uint64(0); w < wordsPerLine; w++ {
		if l.words&(1<<w) != 0 {
			wb.buf[n] = l.tag + w*mem.WordSize
			n++
		}
	}
	wb.Words = wb.buf[:n]
}

// line is one cache line's metadata.
type line struct {
	tag   uint64
	valid bool
	dirty bool
	seq   uint64 // newest store seq
	core  int
	words uint64 // dirty-word bitmap (8 words per 64B line)
	lru   uint64
}

// Cache is a set-associative writeback cache. Its lines are one flat run,
// set-major: set i occupies lines[i*ways : (i+1)*ways].
type Cache struct {
	lines   []line
	nsets   uint64
	setMask uint64 // nsets-1 when a power of two, else 0
	ways    int
	clock   uint64

	scratch Writeback // reused by Access/Invalidate writeback returns

	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// Lines is a backing of line slots that caches are carved from (Init): a
// machine makes one for all of its caches.
type Lines []line

// numSets returns the set count of a cache with the given geometry.
func numSets(capacity uint64, ways int) int {
	if nsets := int(capacity/mem.LineSize) / ways; nsets > 0 {
		return nsets
	}
	return 1
}

// LineCount returns the line slots a cache of the given geometry occupies.
func LineCount(capacity uint64, ways int) int { return numSets(capacity, ways) * ways }

// Init builds the cache in place with the given capacity in bytes and
// associativity, carving its LineCount(capacity, ways) slots from *lines.
func (c *Cache) Init(capacity uint64, ways int, lines *Lines) {
	nsets := numSets(capacity, ways)
	*c = Cache{lines: slab.Carve((*[]line)(lines), nsets*ways, 0), nsets: uint64(nsets), ways: ways}
	if n := uint64(nsets); n&(n-1) == 0 {
		c.setMask = n - 1
	}
}

// New builds a standalone cache with the given capacity in bytes and
// associativity.
func New(capacity uint64, ways int) *Cache {
	lines := make(Lines, LineCount(capacity, ways))
	c := &Cache{}
	c.Init(capacity, ways, &lines)
	return c
}

func (c *Cache) set(lineAddr uint64) []line {
	s := lineAddr / mem.LineSize
	if c.setMask != 0 || c.nsets == 1 {
		s &= c.setMask
	} else {
		s %= c.nsets
	}
	i := int(s) * c.ways
	return c.lines[i : i+c.ways : i+c.ways]
}

// Lookup probes the cache without modifying state. It reports a hit.
func (c *Cache) Lookup(addr uint64) bool {
	la := mem.LineAddr(addr)
	set := c.set(la)
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == la {
			return true
		}
	}
	return false
}

// Access performs a read or write access to addr by core. For writes, seq is
// the store's global sequence number. It returns whether the access hit and,
// when the fill evicted a dirty line, the resulting writeback (valid until
// the next Access/Invalidate on this cache).
func (c *Cache) Access(addr uint64, write bool, seq uint64, core int) (hit bool, wb *Writeback) {
	la := mem.LineAddr(addr)
	set := c.set(la)
	c.clock++

	for i := range set {
		l := &set[i]
		if l.valid && l.tag == la {
			c.Hits++
			l.lru = c.clock
			if write {
				l.dirty = true
				l.words |= 1 << ((addr % mem.LineSize) / mem.WordSize)
				if seq > l.seq {
					l.seq = seq
					l.core = core
				}
			}
			return true, nil
		}
	}
	c.Misses++

	// Choose a victim: first invalid way, else LRU.
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			goto fill
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	if set[victim].dirty {
		c.Evictions++
		c.scratch.fill(&set[victim])
		wb = &c.scratch
	}
fill:
	l := &set[victim]
	*l = line{tag: la, valid: true, lru: c.clock}
	if write {
		l.dirty = true
		l.seq = seq
		l.core = core
		l.words = 1 << ((addr % mem.LineSize) / mem.WordSize)
	}
	return false, wb
}

// Invalidate drops the line containing addr if present, returning its
// writeback if it was dirty (valid until the next Access/Invalidate on this
// cache). Used by the coherence glue when another core writes the same line.
func (c *Cache) Invalidate(addr uint64) *Writeback {
	la := mem.LineAddr(addr)
	set := c.set(la)
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == la {
			var wb *Writeback
			if l.dirty {
				c.scratch.fill(l)
				wb = &c.scratch
			}
			l.valid = false
			l.dirty = false
			l.words = 0
			return wb
		}
	}
	return nil
}

// DirtyLines counts currently dirty lines. Observability only (sampled into
// the metrics histograms at region boundaries); it walks every set, so keep it
// off hot paths.
func (c *Cache) DirtyLines() int {
	n := 0
	for i := range c.lines {
		if l := &c.lines[i]; l.valid && l.dirty {
			n++
		}
	}
	return n
}

// Reset clears the cache (power failure: all volatile contents lost).
func (c *Cache) Reset() {
	clear(c.lines)
}
