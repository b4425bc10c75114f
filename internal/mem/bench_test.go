package mem

import "testing"

// Raw store micro-benchmarks: the per-access cost of the paged flat-array
// backing over the access patterns the simulator actually generates
// (sequential heap sweeps and strided line-granular writebacks). Run with:
//
//	go test -bench 'Mem|NVM' -benchmem ./internal/mem
//
// TestPagedAccessAllocFree pins the property these numbers rest on: an
// access to a populated page allocates nothing.

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
// accesses touch are populated.
func TestPagedAccessAllocFree(t *testing.T) {
	addrs := benchAddrs()
	m, n := NewMem(), NewNVM()
	for _, a := range addrs {
		m.Store(a, a)
		n.Write(a, a, 1)
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
	} {
		if got := testing.AllocsPerRun(1000, tc.op); got != 0 {
			t.Errorf("%s: %.1f allocs per access, want 0", tc.name, got)
		}
	}
}
