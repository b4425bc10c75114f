package mem

import (
	"math/bits"
	"runtime"
	"slices"
	"testing"

	"capri/internal/slab"
)

// Raw store micro-benchmarks: the per-access cost of the paged flat-array
// backing over the access patterns the simulator actually generates
// (sequential heap sweeps and strided line-granular writebacks). Run with:
//
//	go test -bench 'Mem|NVM' -benchmem ./internal/mem
//
// TestPagedAccessAllocFree pins the property these numbers rest on: an
// access to a populated page allocates nothing. BenchmarkMemPageWalk and
// TestPageTableAllocsGrowSlowly cover the other side: what touching a new
// page costs.

// benchSpan covers 2 MB of heap — the figure workloads' footprint scale,
// touched densely the way their kernels sweep arrays.
const benchSpan = uint64(2 << 20)

func benchAddrs() []uint64 {
	addrs := make([]uint64, 4096)
	for i := range addrs {
		// 17-word stride: line-crossing, page-dense, cache-hostile.
		addrs[i] = (uint64(i) * 17 * WordSize) % benchSpan
	}
	return addrs
}

func benchMemLoad(b *testing.B, m *Mem) {
	addrs := benchAddrs()
	for _, a := range addrs {
		m.Store(a, a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += m.Load(addrs[i&(len(addrs)-1)])
	}
	benchSink = sink
}

func benchMemStore(b *testing.B, m *Mem) {
	addrs := benchAddrs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Store(addrs[i&(len(addrs)-1)], uint64(i))
	}
}

func benchNVMWrite(b *testing.B, n *NVM) {
	addrs := benchAddrs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Monotonic seq: every write passes the guard, as phase-2 drains do.
		n.Write(addrs[i&(len(addrs)-1)], uint64(i), uint64(i)+1)
	}
}

var benchSink uint64

func BenchmarkMemLoadPaged(b *testing.B)  { benchMemLoad(b, NewMem()) }
func BenchmarkMemStorePaged(b *testing.B) { benchMemStore(b, NewMem()) }
func BenchmarkNVMWritePaged(b *testing.B) { benchNVMWrite(b, NewNVM()) }

// BenchmarkNVMWriteStale measures the guard's rejection path (writebacks
// racing drained entries): all writes carry a stale sequence and must be
// skipped without mutating the page.
func BenchmarkNVMWriteStale(b *testing.B) {
	n := NewNVM()
	addrs := benchAddrs()
	for _, a := range addrs {
		n.Write(a, a, ^uint64(0))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Write(addrs[i&(len(addrs)-1)], uint64(i), 1)
	}
}

// TestPagedAccessAllocFree requires zero allocations for Load, Store, Peek
// and both outcomes of Write (applied and stale-skipped) once the pages the
// accesses touch are populated, and for Write and Restore to a clone's
// pages once its first write to each has copied it.
func TestPagedAccessAllocFree(t *testing.T) {
	addrs := benchAddrs()
	m, n, src := NewMem(), NewNVM(), NewNVM()
	for _, a := range addrs {
		m.Store(a, a)
		n.Write(a, a, 1)
		src.Write(a, a, 1)
	}
	c := src.Clone()
	for _, a := range addrs {
		c.Write(a, a, 2)
	}
	var i, seq uint64 = 0, 1
	next := func() uint64 {
		i++
		return addrs[i&uint64(len(addrs)-1)]
	}
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"Load", func() { benchSink += m.Load(next()) }},
		{"Store", func() { benchSink += m.Store(next(), i) }},
		{"Peek", func() { benchSink += n.Peek(next()).Val }},
		{"Write", func() {
			seq++
			if !n.Write(next(), seq, seq) {
				t.Fatal("newer write rejected")
			}
		}},
		{"WriteStale", func() {
			if n.Write(next(), 0, 0) {
				t.Fatal("stale write applied")
			}
		}},
		{"WriteCopied", func() {
			seq++
			if !c.Write(next(), seq, seq) {
				t.Fatal("newer write to a clone rejected")
			}
		}},
		{"RestoreCopied", func() { c.Restore(next(), i, seq) }},
	} {
		// One measured run of the whole loop: AllocsPerRun truncates its
		// average to a whole number, so a rare allocation must not be averaged
		// away.
		got := testing.AllocsPerRun(1, func() {
			for range 1000 {
				tc.op()
			}
		})
		if got != 0 {
			t.Errorf("%s: %.0f allocs in 1,000 accesses, want 0", tc.name, got)
		}
	}
}

// The machine's memory map (machine.HeapBase, machine.StackBase): heap data
// from 1 MB up, and eight 64 KB stacks growing down from 512 KB.
const (
	heapBase  = uint64(1 << 20)
	stackTop  = uint64(1 << 19)
	stackSpan = uint64(1 << 16)
	numCores  = 8
)

// pageWalk touches what a machine run does, one page at a time: the top
// word of every core's stack, then heapPages ascending heap pages.
func pageWalk(m *Mem, heapPages int) {
	for c := uint64(0); c < numCores; c++ {
		m.Store(stackTop-c*stackSpan-WordSize, c)
	}
	for i := 0; i < heapPages; i++ {
		m.Store(heapBase+uint64(i)*pageWords*WordSize, uint64(i))
	}
}

// walkPages is the number of heap pages BenchmarkMemPageWalk walks: 4 MB of
// heap, the figure workloads' footprint scale.
const walkPages = 256

// BenchmarkMemPageWalk builds an architectural memory the way a machine run
// first touches it — sparse stacks, then a heap walk — and reports the cost
// per page touched.
func BenchmarkMemPageWalk(b *testing.B) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pageWalk(NewMem(), walkPages)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	pages := float64(b.N) * (walkPages + numCores)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/pages, "ns/page")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/pages, "allocs/page")
}

// TestNVMCloneAllocsIndependentOfPages pins the copy-on-write clone: an NVM
// clone allocates the clone and its page directory and copies no page, at
// every page count, and the first write to a shared page copies that page
// alone.
func TestNVMCloneAllocsIndependentOfPages(t *testing.T) {
	for _, pages := range []int{1, 16, walkPages} {
		n := NewNVM()
		for i := range pages {
			n.Write(heapBase+uint64(i)*pageWords*WordSize, 1, 1)
		}
		var c *NVM
		if got := testing.AllocsPerRun(10, func() { c = n.Clone() }); got != 2 {
			t.Errorf("cloning %d pages made %.0f allocations, want 2", pages, got)
		}
		before := c.Entries()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		c.Write(heapBase, 2, 2)
		runtime.ReadMemStats(&ms1)
		if got := ms1.Mallocs - ms0.Mallocs; got != 1 {
			t.Errorf("first write to a shared page of %d made %d allocations, want 1 (its copy)", pages, got)
		}
		if !slices.Equal(n.Entries(), before) || c.Peek(heapBase).Val != 2 {
			t.Errorf("clone write leaked into the source or was lost")
		}
	}
}

// TestPageTableAllocsGrowSlowly pins the page table's growth: touching n
// new pages costs one allocation per chunk of pages plus one per directory
// doubling, not one (or two, with a directory sized to the highest page)
// per page. The budget's last two allocations are the Mem and the chunks
// that double up to the full size.
func TestPageTableAllocsGrowSlowly(t *testing.T) {
	const n = walkPages
	top := heapBase/(pageWords*WordSize) + n // highest page touched, plus one
	budget := (n+numCores)/slab.PagesPerChunk + bits.Len64(top) + 2
	got := testing.AllocsPerRun(20, func() { pageWalk(NewMem(), n) })
	if got > float64(budget) {
		t.Errorf("walking %d heap pages and %d stack pages made %.0f allocations, want <= %d",
			n, numCores, got, budget)
	}
}
