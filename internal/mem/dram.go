package mem

// DRAMCache is the hardware-managed, direct-mapped off-chip DRAM cache that
// fronts NVM in the memory-mode arrangement (Table 1: 8 GB DDR4, 64 B blocks,
// direct-mapped). It is a *timing* structure: it decides whether a memory
// access pays DRAM or NVM latency. It is volatile — its contents do not
// participate in recovery — and, per DESIGN.md, dirty writebacks arriving at
// the memory controller propagate to the NVM write queue rather than
// lingering dirty here, so the cache only ever holds clean lines.
type DRAMCache struct {
	// Tag storage is chunked and allocated lazily: a multi-MB direct-mapped
	// cache would otherwise be zeroed wholesale at machine construction, and
	// figure sweeps construct one machine per configuration point. A set
	// holds the line tag, or 0 when empty (tag = lineAddr | 1).
	chunks [][]uint64
	nsets  uint64
	mask   uint64 // nsets-1 when the set count is a power of two, else 0

	Hits   uint64
	Misses uint64
}

// dramChunkBits sizes a tag chunk (2^13 sets = 64 KB of tags).
const dramChunkBits = 13

// NewDRAMCache builds a direct-mapped cache of the given capacity in bytes.
func NewDRAMCache(capacity uint64) *DRAMCache {
	n := capacity / LineSize
	if n == 0 {
		n = 1
	}
	nchunks := (n + (1 << dramChunkBits) - 1) >> dramChunkBits
	d := &DRAMCache{chunks: make([][]uint64, nchunks), nsets: n}
	if n&(n-1) == 0 {
		d.mask = n - 1
	}
	return d
}

// idx maps a line address to its set. Every realistic capacity yields a
// power-of-two set count, indexed with a mask; the modulo path exists only
// for odd capacities and is bit-identical to the mask for power-of-two ones.
func (d *DRAMCache) idx(line uint64) uint64 {
	s := line / LineSize
	if d.mask != 0 || d.nsets == 1 {
		return s & d.mask
	}
	return s % d.nsets
}

// set returns a pointer to the tag slot for a set index, materializing its
// chunk on first touch. A chunk holds at most the sets left from its start,
// so a cache smaller than one chunk zeroes only its own tags.
func (d *DRAMCache) set(idx uint64) *uint64 {
	ch := d.chunks[idx>>dramChunkBits]
	if ch == nil {
		start := idx &^ (1<<dramChunkBits - 1)
		ch = make([]uint64, min(1<<dramChunkBits, d.nsets-start))
		d.chunks[idx>>dramChunkBits] = ch
	}
	return &ch[idx&(1<<dramChunkBits-1)]
}

// Access looks up the line containing addr, filling it on miss. It reports
// whether the access hit.
func (d *DRAMCache) Access(addr uint64) bool {
	line := LineAddr(addr)
	s := d.set(d.idx(line))
	tag := line | 1
	if *s == tag {
		d.Hits++
		return true
	}
	*s = tag
	d.Misses++
	return false
}

// Fill installs the line containing addr without counting a hit or miss
// (used when writebacks pass through the controller).
func (d *DRAMCache) Fill(addr uint64) {
	line := LineAddr(addr)
	*d.set(d.idx(line)) = line | 1
}

// Reset drops all lines (power failure).
func (d *DRAMCache) Reset() {
	for i := range d.chunks {
		d.chunks[i] = nil
	}
}
