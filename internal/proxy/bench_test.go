package proxy

import "testing"

// BenchmarkProxyDrain drives the full two-phase pipeline at steady state —
// front-end allocation, path transmission, back-end acceptance, and phase-2
// region pops — the way the machine's per-instruction service loop does,
// with a boundary that carries register checkpoints and an output emit. The
// steady state must be allocation-free: front-end, path, back-end and the
// boundary table with its payload arenas recycle their rings, and PopRegion
// hands out the region in place.
func BenchmarkProxyDrain(b *testing.B) {
	u := &NewUnits(1, 32, 256, 40, 8, nil)[0]
	f, p, be := &u.Front, &u.Path, &u.Back
	b.ReportAllocs()
	b.ResetTimer()
	now := uint64(0)
	seq := uint64(0)
	emits := []uint64{42}
	for i := 0; i < b.N; i++ {
		// One small region: four stores (two merging) and a boundary.
		for s := 0; s < 4; s++ {
			seq++
			f.AddStore(uint64(0x1000+(s&1)*8), 0, seq, seq)
		}
		f.StageCkpt(1, seq)
		f.StageCkpt(2, seq)
		f.AddBoundary(uint64(i), 0, 0, 0, 0x8000, emits, true, false, false)
		// Drain front -> path -> back at the path's bandwidth.
		for f.Len() > 0 {
			now = p.SendFrom(f.Peek(), now) + 1
			f.DropHead()
		}
		p.DeliverEach(now+p.Latency, func(r *Rec, _ *Boundary, _ uint64, _ bool) {
			if !be.AcceptFrom(r) {
				b.Fatal("back-end overflow")
			}
		})
		for {
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
	count := func(*Rec, *Boundary, uint64, bool) { n++ }
	for i := 0; i < b.N; i++ {
		p.DeliverEach(uint64(i), count)
	}
	if n != 0 {
		b.Fatal("idle path delivered entries")
	}
}
