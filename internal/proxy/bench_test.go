package proxy

import "testing"

// BenchmarkProxyDrain drives the full two-phase pipeline at steady state —
// front-end allocation, path transmission, back-end acceptance, and phase-2
// region pops — the way the machine's per-instruction service loop does. The
// steady state must be allocation-free: front-end, path and back-end
// recycle their rings, and PopRegion hands out the region in place.
func BenchmarkProxyDrain(b *testing.B) {
	u := &NewUnits(1, 32, 256, 40, 8, nil)[0]
	f, p, be := &u.Front, &u.Path, &u.Back
	b.ReportAllocs()
	b.ResetTimer()
	now := uint64(0)
	seq := uint64(0)
	for i := 0; i < b.N; i++ {
		// One small region: four stores (two merging) and a boundary.
		for s := 0; s < 4; s++ {
			seq++
			f.AddStore(uint64(0x1000+(s&1)*8), 0, seq, seq)
		}
		f.AddBoundary(uint64(i), 0, 0, 0, 0x8000, nil, true, false, false)
		// Drain front -> path -> back at the path's bandwidth.
		for f.Len() > 0 {
			e, _ := f.Pop()
			now = p.Send(e, now) + 1
		}
		p.DeliverEach(now+p.Latency, func(e *Entry, _ uint64, _ bool) {
			if !be.AcceptFrom(e) {
				b.Fatal("back-end overflow")
			}
		})
		for be.HasRegion() {
			if _, ok := be.PopRegion(); !ok {
				break
			}
		}
	}
}

// BenchmarkPathServiceIdle measures the per-instruction cost of servicing an
// empty path — the common case between stores, which the machine pays on
// every executed instruction.
func BenchmarkPathServiceIdle(b *testing.B) {
	p := &NewUnits(1, 1, 1, 40, 8, nil)[0].Path
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	count := func(*Entry, uint64, bool) { n++ }
	for i := 0; i < b.N; i++ {
		p.DeliverEach(uint64(i), count)
	}
	if n != 0 {
		b.Fatal("idle path delivered entries")
	}
}
