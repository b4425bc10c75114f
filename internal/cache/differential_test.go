package cache

// The cache differential: a fuzzed stream of accesses, invalidations,
// flushes and resets runs through the cache and through a plain model of
// the same contract side by side, and the two are compared after every
// operation. The model keeps each way as separate fields (a valid flag, the
// line address, a set of dirty word addresses, the newest store's sequence
// and core, a use stamp), indexes sets by plain modulo and finds victims by
// the rule itself: the first empty way, else the least recently used one.
// So the packed line (the valid bit folded into the tag, dirty derived from
// the word mask, narrowed fields) and the mask-indexed sets are checked
// against a version with nothing packed.

import (
	"reflect"
	"sort"
	"testing"
	"unsafe"

	"capri/internal/mem"
)

// fuzzGeoms are the geometries the first input byte picks from: direct
// mapped, 8-way and 16-way, with power-of-two and other set counts.
var fuzzGeoms = [...]struct{ sets, ways int }{
	{1, 1}, {4, 1}, {3, 1}, {1, 8}, {2, 8}, {6, 8}, {1, 16}, {3, 16},
}

// fuzzBases are the regions an address operand picks from; each holds 64
// lines, so sets of every geometry collide. The last region ends at the top
// of the address space.
var fuzzBases = [...]uint64{0, 1 << 20, 1 << 40, ^uint64(0) - 64*mem.LineSize + 1}

// refWB is a writeback as the model produces it.
type refWB struct {
	Line  uint64
	Words []uint64 // ascending
	Seq   uint64
	Core  int
}

// refWay is one way of the model.
type refWay struct {
	valid bool
	line  uint64
	dirty map[uint64]bool // dirty word addresses
	seq   uint64
	core  int
	used  uint64 // stamp of the last access that hit or filled the way
}

func (w *refWay) writeback() *refWB {
	wb := &refWB{Line: w.line, Seq: w.seq, Core: w.core, Words: []uint64{}}
	for a := range w.dirty {
		wb.Words = append(wb.Words, a)
	}
	sort.Slice(wb.Words, func(i, j int) bool { return wb.Words[i] < wb.Words[j] })
	return wb
}

// refCache is the model: sets of ways and the counters.
type refCache struct {
	sets                    [][]refWay
	stamp                   uint64
	hits, misses, evictions uint64
}

func newRefCache(sets, ways int) *refCache {
	r := &refCache{sets: make([][]refWay, sets)}
	for i := range r.sets {
		r.sets[i] = make([]refWay, ways)
	}
	return r
}

func (r *refCache) set(addr uint64) (line uint64, ways []refWay) {
	line = addr - addr%mem.LineSize
	return line, r.sets[(line/mem.LineSize)%uint64(len(r.sets))]
}

func (r *refCache) lookup(addr uint64) *refWay {
	line, ways := r.set(addr)
	for i := range ways {
		if ways[i].valid && ways[i].line == line {
			return &ways[i]
		}
	}
	return nil
}

func (r *refCache) access(addr uint64, write bool, seq uint64, core int) (bool, *refWB) {
	line, ways := r.set(addr)
	r.stamp++
	word := addr - addr%mem.WordSize
	if w := r.lookup(addr); w != nil {
		r.hits++
		w.used = r.stamp
		if write {
			w.dirty[word] = true
			if seq > w.seq {
				w.seq, w.core = seq, core
			}
		}
		return true, nil
	}
	r.misses++
	victim := -1
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
	}
	var wb *refWB
	if victim < 0 {
		victim = 0
		for i := range ways {
			if ways[i].used < ways[victim].used {
				victim = i
			}
		}
		if len(ways[victim].dirty) > 0 {
			r.evictions++
			wb = ways[victim].writeback()
		}
	}
	ways[victim] = refWay{valid: true, line: line, dirty: map[uint64]bool{}, used: r.stamp}
	if write {
		ways[victim].dirty[word] = true
		ways[victim].seq, ways[victim].core = seq, core
	}
	return false, wb
}

func (r *refCache) invalidate(addr uint64) *refWB {
	w := r.lookup(addr)
	if w == nil {
		return nil
	}
	var wb *refWB
	if len(w.dirty) > 0 {
		wb = w.writeback()
	}
	*w = refWay{}
	return wb
}

func (r *refCache) flushAll() []refWB {
	out := []refWB{}
	for _, ways := range r.sets {
		for i := range ways {
			if w := &ways[i]; w.valid && len(w.dirty) > 0 {
				out = append(out, *w.writeback())
				w.dirty = map[uint64]bool{}
			}
		}
	}
	return out
}

func (r *refCache) reset() {
	for _, ways := range r.sets {
		clear(ways)
	}
}

func (r *refCache) dirtyLines() int {
	n := 0
	for _, ways := range r.sets {
		for _, w := range ways {
			if w.valid && len(w.dirty) > 0 {
				n++
			}
		}
	}
	return n
}

// asRef copies a cache writeback into the model's form (nil stays nil).
func asRef(wb *Writeback) *refWB {
	if wb == nil {
		return nil
	}
	return &refWB{Line: wb.Line, Words: append([]uint64{}, wb.Words...), Seq: wb.Seq, Core: wb.Core}
}

// Cache-differential operations, one opcode byte each followed by its
// operand bytes. An address is two bytes: the first picks a region of
// fuzzBases (low two bits) and one of its 64 lines, the second a byte
// within the line, so unaligned addresses alias their word. A sequence
// byte's low nibble is shifted left by four times its high nibble, so
// small sequences collide and 60-bit ones occur; a core byte is scaled
// to the machine's 1024 cores.
const (
	opWrite      = iota // addr addr seq core
	opRead              // addr addr
	opInvalidate        // addr addr
	opFlushAll          //
	opReset             //
	numOps
)

var opArgs = [numOps]int{opWrite: 4, opRead: 2, opInvalidate: 2}

// maxOpBytes bounds the decoded stream: about 250 operations, enough to
// fill the largest geometry (48 lines) several times over, while the
// fuzzer, which re-runs every new input hundreds of times to minimize it,
// keeps its pace.
const maxOpBytes = 1024

// cacheDiff holds the cache under test and its model.
type cacheDiff struct {
	t *testing.T
	c *Cache
	r *refCache
}

// check compares the counters and the dirty-line count.
func (d *cacheDiff) check(what string) {
	d.t.Helper()
	if d.c.Hits != d.r.hits || d.c.Misses != d.r.misses || d.c.Evictions != d.r.evictions {
		d.t.Fatalf("%s: hits/misses/evictions %d/%d/%d, model %d/%d/%d", what,
			d.c.Hits, d.c.Misses, d.c.Evictions, d.r.hits, d.r.misses, d.r.evictions)
	}
	if got, want := d.c.DirtyLines(), d.r.dirtyLines(); got != want {
		d.t.Fatalf("%s: DirtyLines %d, model %d", what, got, want)
	}
}

// lookup compares Lookup of addr's line.
func (d *cacheDiff) lookup(what string, addr uint64) {
	d.t.Helper()
	if got, want := d.c.Lookup(addr), d.r.lookup(addr) != nil; got != want {
		d.t.Fatalf("%s: Lookup(%#x) = %v, model %v", what, addr, got, want)
	}
}

// lookupAll compares Lookup of every line the operands can name.
func (d *cacheDiff) lookupAll(what string) {
	d.t.Helper()
	for _, base := range fuzzBases {
		for l := uint64(0); l < 64; l++ {
			d.lookup(what, base+l*mem.LineSize)
		}
	}
}

func (d *cacheDiff) sameWB(what string, got *Writeback, want *refWB) {
	d.t.Helper()
	if g := asRef(got); !reflect.DeepEqual(g, want) {
		d.t.Fatalf("%s: writeback %+v, model %+v", what, g, want)
	}
}

// run decodes ops and applies each to both sides, comparing after every
// one: its result, the counters, the dirty-line count and Lookup of the
// line it named (of every line after a flush or reset and at the end, so a
// line resident on one side only is found). Trailing bytes too short for an operation's operands are ignored, as
// are bytes past maxOpBytes.
func (d *cacheDiff) run(ops []byte) {
	ops = ops[:min(len(ops), maxOpBytes)]
	for len(ops) > 0 {
		op := int(ops[0]) % numOps
		if len(ops) < 1+opArgs[op] {
			break
		}
		arg := ops[1 : 1+opArgs[op]]
		ops = ops[1+opArgs[op]:]
		addr := func() uint64 {
			return fuzzBases[arg[0]&3] + uint64(arg[0]>>2)*mem.LineSize + uint64(arg[1]%mem.LineSize)
		}
		switch op {
		case opWrite, opRead:
			a, write := addr(), op == opWrite
			var seq uint64
			var core int
			if write {
				seq, core = uint64(arg[2]&15)<<(4*(arg[2]>>4)), int(arg[3])*4
			}
			hit, wb := d.c.Access(a, write, seq, core)
			rhit, rwb := d.r.access(a, write, seq, core)
			if hit != rhit {
				d.t.Fatalf("Access(%#x, %v, %d, %d) hit %v, model %v", a, write, seq, core, hit, rhit)
			}
			d.sameWB("Access", wb, rwb)
			d.lookup("after Access", a)
		case opInvalidate:
			a := addr()
			d.sameWB("Invalidate", d.c.Invalidate(a), d.r.invalidate(a))
			d.lookup("after Invalidate", a)
		case opFlushAll:
			got := []refWB{}
			for _, wb := range d.c.FlushAll() {
				got = append(got, *asRef(wb))
			}
			if want := d.r.flushAll(); !reflect.DeepEqual(got, want) {
				d.t.Fatalf("FlushAll %+v, model %+v", got, want)
			}
			d.lookupAll("after FlushAll")
		case opReset:
			d.c.Reset()
			d.r.reset()
			d.lookupAll("after Reset")
		}
		d.check("after op")
	}
	d.lookupAll("final")
}

// seedStream returns a deterministic op stream of n operations for
// geometry g, mostly writes and reads over region 0's 64 lines and, a
// quarter of the time, those of another region (more lines than any
// geometry holds), so sets fill, evict dirty lines and re-dirty them, with
// an occasional invalidation, flush or reset.
func seedStream(g byte, n int, seed uint64) []byte {
	out := []byte{g}
	next := func() byte {
		seed = seed*6364136223846793005 + 1442695040888963407
		return byte(seed >> 56)
	}
	for i := 0; i < n; i++ {
		a0 := next() &^ 3 // a line of region 0, or one of another region
		if next() < 64 {
			a0 |= next() & 3
		}
		switch r := next(); {
		case r < 120:
			out = append(out, opWrite, a0, next(), next(), next())
		case r < 236:
			out = append(out, opRead, a0, next())
		case r < 250:
			out = append(out, opInvalidate, a0, next())
		case r < 254:
			out = append(out, opFlushAll)
		default:
			out = append(out, opReset)
		}
	}
	return out
}

// FuzzCacheDifferential drives the cache through fuzzed operation streams
// against the model. The first byte picks a geometry from fuzzGeoms. The
// seeds are one generated stream per geometry.
func FuzzCacheDifferential(f *testing.F) {
	f.Add([]byte{3, opWrite, 0, 0, 5, 3, opWrite, 0, 8, 6, 3, opFlushAll})
	for g := range fuzzGeoms {
		f.Add(seedStream(byte(g), 250, uint64(g)+1))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		g := fuzzGeoms[int(in[0])%len(fuzzGeoms)]
		d := &cacheDiff{t: t, c: New(uint64(g.sets*g.ways)*mem.LineSize, g.ways), r: newRefCache(g.sets, g.ways)}
		d.run(in[1:])
	})
}

// TestLineLayout pins the compact line: at most 32 bytes, pointer-free (the
// collector never scans a machine's cache backing), and a dirty-word mask
// wide enough for every word of a line.
func TestLineLayout(t *testing.T) {
	if n := unsafe.Sizeof(line{}); n > 32 {
		t.Errorf("line is %d bytes, want <= 32", n)
	}
	typ := reflect.TypeOf(line{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Int32, reflect.Uint8, reflect.Uint64:
		default:
			t.Errorf("line field %s is a %v, want a pointer-free integer", f.Name, f.Type)
		}
	}
	if bits := 8 * unsafe.Sizeof(line{}.words); bits < wordsPerLine {
		t.Errorf("dirty-word mask has %d bits for %d words a line", bits, wordsPerLine)
	}
}
