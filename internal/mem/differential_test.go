package mem

// The store differential: a fuzzed stream of operations runs through the
// paged store and a plain-map model of the same contract side by side, and
// the two are compared after every operation. The model is the whole
// specification of the store — word aliasing of unaligned addresses, the
// sequence guard (equal sequences rejected), Restore bypassing it, written
// zeros counting as persisted, address-sorted Entries — in a few lines of
// map code with no paging to get wrong. The address pool makes operations
// collide and reaches the paged store's edges: page-boundary words, every
// core's stack top and a heap walk across several chunks of carved pages,
// the last direct page, and far pages past the direct directory (≥ 1 GiB),
// which no simulated workload touches. Clones share pages copy-on-write, so
// up to three live tables (an original, a clone and a clone of the clone)
// each keep their own model and are all compared after every operation.

import (
	"reflect"
	"sort"
	"testing"

	"capri/internal/slab"
)

const pageBytes = pageWords * WordSize

// fuzzAddrs is the fuzz target's address pool.
var fuzzAddrs = [...]uint64{
	0,
	8,
	13, // unaligned: aliases word 8
	pageBytes - 16,
	pageBytes - 8, // last word of page 0
	pageBytes,     // first word of page 1
	pageBytes + 3, // unaligned: aliases the first word of page 1
	1 << 20,       // heap base
	1<<20 + 0x1f8,
	slab.DirectPages * pageBytes,   // first far page (1 GiB)
	slab.DirectPages*pageBytes + 6, // unaligned far address
	slab.DirectPages*pageBytes + pageBytes,
	1<<31 + 0x10,
	1 << 40,
	^uint64(0), // unaligned: the last word of the address space
	// The page table's edges at the machine's memory map: the top word of
	// every core's stack, the heap base's neighbours, a heap walk across
	// a page boundary and several chunks of carved pages, and the
	// last word of the last direct page.
	stackTop - WordSize,
	stackTop - stackSpan - WordSize,
	stackTop - 2*stackSpan - WordSize,
	stackTop - 3*stackSpan - WordSize,
	stackTop - 4*stackSpan - WordSize,
	stackTop - 5*stackSpan - WordSize,
	stackTop - 6*stackSpan - WordSize,
	stackTop - 7*stackSpan - WordSize,
	heapBase - WordSize,
	heapBase + WordSize,
	heapBase + pageBytes - WordSize,
	heapBase + pageBytes,
	heapBase + 2*pageBytes,
	heapBase + 3*pageBytes,
	heapBase + slab.PagesPerChunk*pageBytes,
	heapBase + (slab.PagesPerChunk+1)*pageBytes,
	slab.DirectPages*pageBytes - WordSize,
}

// refNVM is the map model of NVM: one entry per persisted word plus the
// counters the machine's statistics read.
type refNVM struct {
	words                         map[uint64]Word
	wordWrites, staleSkips, reads uint64
}

func newRefNVM() *refNVM { return &refNVM{words: map[uint64]Word{}} }

func (r *refNVM) write(addr, val, seq uint64) bool {
	a := WordAddr(addr)
	if cur, ok := r.words[a]; ok && cur.Seq >= seq {
		r.staleSkips++
		return false
	}
	r.words[a] = Word{Val: val, Seq: seq}
	r.wordWrites++
	return true
}

func (r *refNVM) restore(addr, val, seq uint64) { r.words[WordAddr(addr)] = Word{Val: val, Seq: seq} }

func (r *refNVM) entries() []WordEntry {
	out := make([]WordEntry, 0, len(r.words))
	for a, w := range r.words {
		out = append(out, WordEntry{Addr: a, Val: w.Val, Seq: w.Seq})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

func (r *refNVM) snapshot() map[uint64]uint64 {
	out := make(map[uint64]uint64, len(r.words))
	for a, w := range r.words {
		out[a] = w.Val
	}
	return out
}

func (r *refNVM) clone() *refNVM {
	c := *r
	c.words = make(map[uint64]Word, len(r.words))
	for a, w := range r.words {
		c.words[a] = w
	}
	return &c
}

// refMem is the map model of the architectural memory.
type refMem map[uint64]uint64

func (r refMem) store(addr, val uint64) uint64 {
	a := WordAddr(addr)
	old := r[a]
	r[a] = val
	return old
}

func (r refMem) clone() refMem {
	c := make(refMem, len(r))
	for a, v := range r {
		c[a] = v
	}
	return c
}

// maxNVMs bounds the live NVM tables: the original, a clone and a clone of
// the clone, which share pages three ways until they write them.
const maxNVMs = 3

// storeDiff holds the store pairs under test: up to maxNVMs live NVM
// tables, each with its own model, and one architectural memory.
type storeDiff struct {
	t     *testing.T
	nvms  []*NVM
	rnvms []*refNVM
	cur   int // the table Write, Restore, Read and MemFromNVM act on
	mem   *Mem
	rmem  refMem
}

// checkNVM compares n with r word by word over the pool (Read's statistics
// aside, Peek must see exactly the model) and by count and counters.
func (d *storeDiff) checkNVM(what string, n *NVM, r *refNVM) {
	d.t.Helper()
	if n.Len() != len(r.words) {
		d.t.Fatalf("%s: Len %d, model %d", what, n.Len(), len(r.words))
	}
	if n.WordWrites != r.wordWrites || n.StaleSkips != r.staleSkips || n.Reads != r.reads {
		d.t.Fatalf("%s: counters writes/stale/reads %d/%d/%d, model %d/%d/%d",
			what, n.WordWrites, n.StaleSkips, n.Reads, r.wordWrites, r.staleSkips, r.reads)
	}
	for _, a := range fuzzAddrs {
		if got, want := n.Peek(a), r.words[WordAddr(a)]; got != want {
			d.t.Fatalf("%s: Peek(%#x) = %+v, model %+v", what, a, got, want)
		}
	}
}

// checkNVMFull adds the exported views to checkNVM: the sorted Entries, the
// NVMFromEntries round trip and the value Snapshot.
func (d *storeDiff) checkNVMFull(what string, n *NVM, r *refNVM) {
	d.t.Helper()
	d.checkNVM(what, n, r)
	es, want := n.Entries(), r.entries()
	if !reflect.DeepEqual(es, want) {
		d.t.Fatalf("%s: Entries %v, model %v", what, es, want)
	}
	if back := NVMFromEntries(es).Entries(); !reflect.DeepEqual(back, want) {
		d.t.Fatalf("%s: NVMFromEntries round trip %v, model %v", what, back, want)
	}
	if got, want := n.Snapshot(), r.snapshot(); !reflect.DeepEqual(got, want) {
		d.t.Fatalf("%s: Snapshot %v, model %v", what, got, want)
	}
}

// checkMem compares m with r by count and over the pool.
func (d *storeDiff) checkMem(what string, m *Mem, r refMem) {
	d.t.Helper()
	if m.Len() != len(r) {
		d.t.Fatalf("%s: Len %d, model %d", what, m.Len(), len(r))
	}
	for _, a := range fuzzAddrs {
		if got, want := m.Load(a), r[WordAddr(a)]; got != want {
			d.t.Fatalf("%s: Load(%#x) = %d, model %d", what, a, got, want)
		}
	}
}

// checkMemFull adds the Snapshot and the FromSnapshot round trip.
func (d *storeDiff) checkMemFull(what string, m *Mem, r refMem) {
	d.t.Helper()
	d.checkMem(what, m, r)
	snap := m.Snapshot()
	if !reflect.DeepEqual(snap, map[uint64]uint64(r)) {
		d.t.Fatalf("%s: Snapshot %v, model %v", what, snap, r)
	}
	if back := FromSnapshot(snap).Snapshot(); !reflect.DeepEqual(back, snap) {
		d.t.Fatalf("%s: FromSnapshot round trip %v, want %v", what, back, snap)
	}
}

// Store-differential operations, one opcode byte each followed by its
// operand bytes: an address is a pool index, a value is the byte itself (so
// zero is a written zero) and a sequence is the byte mod 8 (so sequences
// collide and equal-sequence writes occur).
//
// Write, Restore, Read, Clone and MemFromNVM act on the current NVM table.
// Clone keeps its source: the clone joins the live tables (replacing the
// one its last operand names once maxNVMs are live) and, with adopt, becomes
// the current table, so a second Clone forks the clone. Select makes the
// table its operand names current.
const (
	opWrite        = iota // addr val seq
	opRestore             // addr val seq
	opRead                // addr
	opEntries             //
	opClone               // addr val seq adopt
	opMemFromNVM          // addr val adopt
	opStore               // addr val
	opMemSnapshot         //
	opFromSnapshot        // adopt
	opSelect              // table
	numOps
)

var opArgs = [numOps]int{opWrite: 3, opRestore: 3, opRead: 1, opClone: 4, opMemFromNVM: 3, opStore: 2, opFromSnapshot: 1, opSelect: 1}

// maxOpBytes bounds the decoded stream: every copying operation clones
// whole pages, so a stream of tens of kilobytes runs for seconds while
// finding nothing a short one does not (and the fuzzer minimizes every
// new input by re-running it hundreds of times).
const maxOpBytes = 256

// run decodes ops and applies each to both sides, comparing after every
// one. Trailing bytes too short for an operation's operands are ignored, as
// are bytes past maxOpBytes.
func (d *storeDiff) run(ops []byte) {
	ops = ops[:min(len(ops), maxOpBytes)]
	for len(ops) > 0 {
		op := int(ops[0]) % numOps
		if len(ops) < 1+opArgs[op] {
			break
		}
		arg := ops[1 : 1+opArgs[op]]
		ops = ops[1+opArgs[op]:]
		addr := func(i int) uint64 { return fuzzAddrs[int(arg[i])%len(fuzzAddrs)] }
		val := func(i int) uint64 { return uint64(arg[i]) }
		seq := func(i int) uint64 { return uint64(arg[i] % 8) }
		nvm, rnvm := d.nvms[d.cur], d.rnvms[d.cur]
		switch op {
		case opWrite:
			a, v, s := addr(0), val(1), seq(2)
			if got, want := nvm.Write(a, v, s), rnvm.write(a, v, s); got != want {
				d.t.Fatalf("Write(%#x, %d, %d) to table %d applied %v, model %v", a, v, s, d.cur, got, want)
			}
		case opRestore:
			nvm.Restore(addr(0), val(1), seq(2))
			rnvm.restore(addr(0), val(1), seq(2))
		case opRead:
			a := addr(0)
			rnvm.reads++
			if got, want := nvm.Read(a), rnvm.words[WordAddr(a)]; got != want {
				d.t.Fatalf("Read(%#x) from table %d = %+v, model %+v", a, d.cur, got, want)
			}
		case opEntries:
			for i := range d.nvms {
				d.checkNVMFull("Entries", d.nvms[i], d.rnvms[i])
			}
		case opClone:
			// Mutate the clone and then its source at one word: neither
			// may see the other's write.
			c, rc := nvm.Clone(), rnvm.clone()
			d.checkNVMFull("Clone", c, rc)
			c.Restore(addr(0), val(1)+1, seq(2))
			rc.restore(addr(0), val(1)+1, seq(2))
			d.checkNVM("source after clone write", nvm, rnvm)
			nvm.Restore(addr(0), val(1)+2, seq(2))
			rnvm.restore(addr(0), val(1)+2, seq(2))
			d.checkNVM("clone after source write", c, rc)
			i := len(d.nvms)
			if i == maxNVMs {
				i = int(arg[3]>>1) % maxNVMs
			} else {
				d.nvms, d.rnvms = append(d.nvms, nil), append(d.rnvms, nil)
			}
			d.nvms[i], d.rnvms[i] = c, rc
			if arg[3]&1 != 0 {
				d.cur = i
			}
		case opMemFromNVM:
			m, rm := MemFromNVM(nvm), refMem(rnvm.snapshot())
			d.checkMemFull("MemFromNVM", m, rm)
			m.Store(addr(0), val(1)+1)
			rm.store(addr(0), val(1)+1)
			d.checkNVM("NVM after MemFromNVM store", nvm, rnvm)
			d.checkMem("MemFromNVM after store", m, rm)
			if arg[2]&1 != 0 {
				d.mem, d.rmem = m, rm
			}
		case opStore:
			a, v := addr(0), val(1)
			if got, want := d.mem.Store(a, v), d.rmem.store(a, v); got != want {
				d.t.Fatalf("Store(%#x, %d) old %d, model %d", a, v, got, want)
			}
		case opMemSnapshot:
			d.checkMemFull("Mem Snapshot", d.mem, d.rmem)
		case opFromSnapshot:
			m := FromSnapshot(d.mem.Snapshot())
			d.checkMemFull("FromSnapshot", m, d.rmem)
			if arg[0]&1 != 0 {
				d.mem, d.rmem = m, d.rmem.clone()
			}
		case opSelect:
			d.cur = int(arg[0]) % len(d.nvms)
		}
		for i := range d.nvms {
			d.checkNVM("after op", d.nvms[i], d.rnvms[i])
		}
		d.checkMem("after op", d.mem, d.rmem)
	}
	for i := range d.nvms {
		d.checkNVMFull("final", d.nvms[i], d.rnvms[i])
	}
	d.checkMemFull("final", d.mem, d.rmem)
}

// FuzzStoreDifferential drives the paged NVM and architectural memory
// through fuzzed operation streams against the map model. The committed
// corpus (testdata/fuzz/FuzzStoreDifferential) replays under plain go test.
func FuzzStoreDifferential(f *testing.F) {
	f.Add([]byte{opWrite, 1, 5, 3, opWrite, 2, 6, 3, opEntries})
	f.Fuzz(func(t *testing.T, ops []byte) {
		d := &storeDiff{t: t, nvms: []*NVM{NewNVM()}, rnvms: []*refNVM{newRefNVM()}, mem: NewMem(), rmem: refMem{}}
		d.run(ops)
	})
}
