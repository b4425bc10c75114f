package proxy

import (
	"testing"

	"capri/internal/isa"
)

func TestFrontEndAllocAndMerge(t *testing.T) {
	f := NewFrontEnd(8)
	if !f.AddStore(0x100, 0, 1, 1) {
		t.Fatal("alloc failed")
	}
	// Same address, same region: merged, redo/seq updated, undo kept.
	if !f.AddStore(0x100, 1, 2, 2) {
		t.Fatal("merge failed")
	}
	if f.Len() != 1 {
		t.Fatalf("len = %d, want 1 (merged)", f.Len())
	}
	e := f.Entries()[0]
	if e.Undo != 0 || e.Redo != 2 || e.Seq != 2 {
		t.Errorf("merged entry = %+v", e)
	}
	if f.Merges != 1 || f.Allocs != 1 {
		t.Errorf("merges=%d allocs=%d", f.Merges, f.Allocs)
	}
}

func TestFrontEndNoMergeAcrossRegions(t *testing.T) {
	f := NewFrontEnd(8)
	f.AddStore(0x100, 0, 1, 1)
	if ok, elided := f.AddBoundary(1, 0, 0, 0, 0, nil, true, false, false); !ok || elided {
		t.Fatal("boundary rejected or elided")
	}
	f.AddStore(0x100, 1, 2, 2)
	if f.Len() != 3 {
		t.Fatalf("len = %d, want 3 (no cross-region merge)", f.Len())
	}
}

func TestFrontEndFullStalls(t *testing.T) {
	f := NewFrontEnd(2)
	f.AddStore(0x100, 0, 1, 1)
	f.AddStore(0x140, 0, 1, 2)
	if f.AddStore(0x180, 0, 1, 3) {
		t.Error("allocation succeeded on a full buffer")
	}
	if f.Stalls != 1 {
		t.Errorf("stalls = %d", f.Stalls)
	}
	// Merging into an existing entry still works when full.
	if !f.AddStore(0x100, 9, 9, 4) {
		t.Error("merge rejected on full buffer")
	}
}

func TestBoundaryElision(t *testing.T) {
	f := NewFrontEnd(8)
	ok, elided := f.AddBoundary(1, 0, 0, 0, 0, nil, false, false, false)
	if !ok || !elided {
		t.Error("store-free, ckpt-free region boundary should be elided")
	}
	if f.ElidedBds != 1 || f.Len() != 0 {
		t.Errorf("elided=%d len=%d", f.ElidedBds, f.Len())
	}
	// With staged checkpoints, the boundary must be emitted.
	f.StageCkpt(3, 42)
	ok, elided = f.AddBoundary(2, 0, 0, 0, 0, nil, false, false, false)
	if !ok || elided {
		t.Error("boundary with staged ckpts must not be elided")
	}
	if f.Len() != 1 || len(f.Entries()[0].Ckpts) != 1 {
		t.Errorf("boundary entry = %+v", f.Entries())
	}
	// Forced boundaries (halt / thread start) are never elided.
	ok, elided = f.AddBoundary(3, 0, 0, 0, 0, nil, false, true, true)
	if !ok || elided {
		t.Error("forced boundary elided")
	}
	if !f.Entries()[1].Halt {
		t.Error("halt flag lost")
	}
}

func TestStagedCkptOverwrite(t *testing.T) {
	f := NewFrontEnd(8)
	f.StageCkpt(5, 1)
	f.StageCkpt(5, 2)
	f.StageCkpt(6, 3)
	if f.StagedLen() != 2 {
		t.Fatalf("staged = %d, want 2", f.StagedLen())
	}
	f.AddBoundary(1, 0, 0, 0, 0, nil, false, false, false)
	cks := f.Entries()[0].Ckpts
	if len(cks) != 2 || cks[0].Reg != 5 || cks[0].Val != 2 {
		t.Errorf("ckpts = %+v", cks)
	}
	if f.StagedLen() != 0 {
		t.Error("staging not cleared after boundary")
	}
}

func TestFrontEndFIFOPop(t *testing.T) {
	f := NewFrontEnd(8)
	f.AddStore(0x100, 0, 1, 1)
	f.AddStore(0x140, 0, 2, 2)
	e, ok := f.Pop()
	if !ok || e.Addr != 0x100 {
		t.Errorf("pop = %+v", e)
	}
	e, _ = f.Pop()
	if e.Addr != 0x140 {
		t.Errorf("pop2 = %+v", e)
	}
	if _, ok := f.Pop(); ok {
		t.Error("pop on empty succeeded")
	}
}

func TestBackEndRegionPop(t *testing.T) {
	b := NewBackEnd(16)
	b.Accept(Entry{Kind: KindData, Addr: 0x100, Redo: 1, Seq: 1, Valid: true})
	b.Accept(Entry{Kind: KindData, Addr: 0x140, Redo: 2, Seq: 2, Valid: true})
	if b.HasRegion() {
		t.Error("region complete without boundary")
	}
	b.Accept(Entry{Kind: KindBoundary, Region: 1})
	b.Accept(Entry{Kind: KindData, Addr: 0x180, Redo: 3, Seq: 3, Valid: true})
	if !b.HasRegion() {
		t.Fatal("region not detected")
	}
	r, ok := b.PopRegion()
	if !ok || len(r.Data) != 2 || r.Boundary.Region != 1 {
		t.Fatalf("region = %+v", r)
	}
	if b.Len() != 1 {
		t.Errorf("leftover entries = %d, want 1", b.Len())
	}
	if _, ok := b.PopRegion(); ok {
		t.Error("second region popped without boundary")
	}
}

func TestBackEndScanInvalidate(t *testing.T) {
	b := NewBackEnd(16)
	b.Accept(Entry{Kind: KindData, Addr: 0x100, Seq: 5, Valid: true})
	b.Accept(Entry{Kind: KindBoundary, Region: 1})
	b.Accept(Entry{Kind: KindData, Addr: 0x100, Seq: 9, Valid: true})

	// Writeback with seq 6: invalidates the region-1 entry (seq 5) but not
	// the newer one (seq 9) — the cross-core-safe refinement.
	n := b.ScanInvalidate(0x100, 6)
	if n != 1 {
		t.Fatalf("invalidated %d entries, want 1", n)
	}
	es := b.Entries()
	if es[0].Valid || !es[2].Valid {
		t.Errorf("valid bits wrong: %v %v", es[0].Valid, es[2].Valid)
	}
}

func TestBackEndOverflowDetected(t *testing.T) {
	b := NewBackEnd(2)
	b.Accept(Entry{Kind: KindData, Addr: 1, Valid: true})
	b.Accept(Entry{Kind: KindData, Addr: 2, Valid: true})
	if b.Accept(Entry{Kind: KindData, Addr: 3, Valid: true}) {
		t.Error("overflow accepted")
	}
	if b.Overflow != 1 {
		t.Errorf("overflow count = %d", b.Overflow)
	}
	// Boundary entries always fit.
	if !b.Accept(Entry{Kind: KindBoundary}) {
		t.Error("boundary rejected")
	}
}

func TestPathLatencyAndBandwidth(t *testing.T) {
	p := NewPath(40, 8)
	d0 := p.Send(Entry{Kind: KindData, Addr: 1, Valid: true}, 100)
	d1 := p.Send(Entry{Kind: KindData, Addr: 2, Valid: true}, 100)
	if d0 != 100 || d1 != 108 {
		t.Errorf("departures = %d,%d", d0, d1)
	}
	if got := p.Deliver(139); len(got) != 0 {
		t.Errorf("early delivery: %v", got)
	}
	if got := p.Deliver(140); len(got) != 1 || got[0].Addr != 1 {
		t.Errorf("delivery@140 = %v", got)
	}
	if got := p.Deliver(148); len(got) != 1 || got[0].Addr != 2 {
		t.Errorf("delivery@148 = %v", got)
	}
}

func TestPathMonitoringWindow(t *testing.T) {
	p := NewPath(40, 1)
	// Writeback for addr 0x100 seq 10 arrives at cycle 50: window open until 90.
	p.NoteWriteback(0x100, 10, 50)

	p.Send(Entry{Kind: KindData, Addr: 0x100, Seq: 5, Valid: true}, 20) // arrives 60
	p.Send(Entry{Kind: KindData, Addr: 0x100, Seq: 20, Valid: true}, 21)
	p.Send(Entry{Kind: KindData, Addr: 0x200, Seq: 5, Valid: true}, 22)

	got := p.Deliver(100)
	if len(got) != 3 {
		t.Fatalf("delivered %d", len(got))
	}
	if got[0].Valid {
		t.Error("stale entry within window kept valid")
	}
	if !got[1].Valid {
		t.Error("newer entry invalidated by window")
	}
	if !got[2].Valid {
		t.Error("unrelated address invalidated")
	}
	if p.WindowHits != 1 {
		t.Errorf("window hits = %d", p.WindowHits)
	}
}

func TestPathWindowExpiry(t *testing.T) {
	p := NewPath(10, 1)
	p.NoteWriteback(0x100, 10, 0) // window closes at 10
	p.Send(Entry{Kind: KindData, Addr: 0x100, Seq: 5, Valid: true}, 50)
	got := p.Deliver(100)
	if !got[0].Valid {
		t.Error("entry arriving after window expiry invalidated")
	}
}

// TestPathWindowBoundary pins the monitoring window's closed boundaries: an
// entry arriving at *exactly* the expiry cycle is still covered, and a store
// sequence *equal* to the writeback's is still stale — only strictly later
// arrivals or strictly newer stores escape. The online auditor mirrors these
// comparisons exactly (audit: window-missed/spurious-invalidation), so a
// drift here would show up as false violations.
func TestPathWindowBoundary(t *testing.T) {
	const latency = 10
	cases := []struct {
		name      string
		sendAt    uint64 // departure == sendAt (first send, no backlog); arrival = sendAt+latency
		seq       uint64
		wantValid bool
	}{
		// Window opened at cycle 0 with seq 10: covers arrivals <= 10.
		{"stale seq, arrival exactly at expiry", 0, 5, false},
		{"stale seq, arrival one past expiry", 1, 5, true},
		{"equal seq, arrival at expiry", 0, 10, false},
		{"newer seq, arrival at expiry", 0, 11, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPath(latency, 1)
			p.NoteWriteback(0x100, 10, 0) // expiry = 0 + latency
			p.Send(Entry{Kind: KindData, Addr: 0x100, Seq: tc.seq, Valid: true}, tc.sendAt)
			got := p.Deliver(tc.sendAt + latency)
			if len(got) != 1 {
				t.Fatalf("delivered %d entries", len(got))
			}
			if got[0].Valid != tc.wantValid {
				t.Errorf("Valid = %v, want %v", got[0].Valid, tc.wantValid)
			}
			if wantHits := uint64(0); !tc.wantValid {
				wantHits = 1
				if p.WindowHits != wantHits {
					t.Errorf("WindowHits = %d, want %d", p.WindowHits, wantHits)
				}
			} else if p.WindowHits != 0 {
				t.Errorf("WindowHits = %d, want 0", p.WindowHits)
			}
		})
	}
}

// TestPathWindowSurvivesDrainAll covers the crash-harvest interaction: a
// DrainAll neither applies the window (harvested entries keep their
// valid-bits — recovery judges them against NVM sequence numbers instead)
// nor closes it — entries sent on the reused path still arrive into the
// same open window. DrainAll must also not fire the observability probe: a
// crash harvest is not a wire arrival.
func TestPathWindowSurvivesDrainAll(t *testing.T) {
	const latency = 10
	p := NewPath(latency, 1)
	probes := 0
	p.Probe = func(*Entry, uint64, bool) { probes++ }

	p.NoteWriteback(0x100, 10, 5) // expiry = 15
	p.Send(Entry{Kind: KindData, Addr: 0x100, Seq: 5, Valid: true}, 0)
	harvested := p.DrainAll()
	if len(harvested) != 1 || !harvested[0].Valid {
		t.Fatalf("crash harvest = %+v, want 1 valid entry (window not applied)", harvested)
	}
	if probes != 0 {
		t.Errorf("DrainAll fired the probe %d times", probes)
	}
	if p.WindowLen() != 1 {
		t.Fatalf("window emptied by DrainAll (len=%d)", p.WindowLen())
	}

	// Reuse the drained path: departs at 3 (bandwidth slot 1 passed), arrives
	// 13 <= 15 — the surviving window must still invalidate it.
	p.Send(Entry{Kind: KindData, Addr: 0x100, Seq: 6, Valid: true}, 3)
	got := p.Deliver(20)
	if len(got) != 1 || got[0].Valid {
		t.Errorf("post-drain delivery = %+v, want 1 stale-invalidated entry", got)
	}
	if probes != 1 {
		t.Errorf("Deliver fired the probe %d times, want 1", probes)
	}
}

// TestPathWindowRefresh pins NoteWriteback's refresh rule (the auditor
// mirrors it): a later writeback re-arms the window whenever it extends the
// expiry — even with an *older* sequence, which then narrows seq coverage to
// stores at or below it.
func TestPathWindowRefresh(t *testing.T) {
	const latency = 10
	p := NewPath(latency, 1)
	p.NoteWriteback(0x100, 10, 0) // expiry 10, seq 10
	p.NoteWriteback(0x100, 3, 20) // refresh: expiry 30, seq 3
	if p.WindowAdds != 2 {
		t.Fatalf("WindowAdds = %d, want 2 (refresh counted)", p.WindowAdds)
	}
	p.Send(Entry{Kind: KindData, Addr: 0x100, Seq: 3, Valid: true}, 15) // arrives 25 <= 30
	p.Send(Entry{Kind: KindData, Addr: 0x100, Seq: 5, Valid: true}, 16) // arrives 26, seq 5 > 3
	got := p.Deliver(40)
	if len(got) != 2 {
		t.Fatalf("delivered %d entries", len(got))
	}
	if got[0].Valid {
		t.Error("seq<=window entry inside refreshed window kept valid")
	}
	if !got[1].Valid {
		t.Error("seq>window entry invalidated after older-seq refresh")
	}
}

func TestPathDrainAll(t *testing.T) {
	p := NewPath(40, 8)
	p.Send(Entry{Kind: KindData, Addr: 1}, 0)
	p.Send(Entry{Kind: KindBoundary, Region: 7}, 0)
	got := p.DrainAll()
	if len(got) != 2 || got[1].Region != 7 {
		t.Errorf("drain = %+v", got)
	}
	if p.InFlight() != 0 {
		t.Error("packets left after drain")
	}
}

func TestFrontEndMergeKeepsFirstSeq(t *testing.T) {
	f := NewFrontEnd(8)
	f.AddStore(0x100, 0, 1, 10)
	f.AddStore(0x100, 1, 2, 20) // merged
	e := f.Entries()[0]
	if e.FirstSeq != 10 || e.Seq != 20 {
		t.Errorf("merged entry FirstSeq=%d Seq=%d, want 10/20", e.FirstSeq, e.Seq)
	}
	if e.Undo != 0 {
		t.Errorf("merged undo = %d, want the oldest image 0", e.Undo)
	}
}

func TestBackEndMergeKeepsFirstSeq(t *testing.T) {
	b := NewBackEnd(8)
	b.Accept(Entry{Kind: KindData, Addr: 0x100, Undo: 0, Redo: 1, Seq: 10, FirstSeq: 10, Valid: true})
	b.Accept(Entry{Kind: KindData, Addr: 0x100, Undo: 1, Redo: 2, Seq: 20, FirstSeq: 20, Valid: true})
	es := b.Entries()
	if len(es) != 1 {
		t.Fatalf("entries = %d, want 1 (merged)", len(es))
	}
	if es[0].FirstSeq != 10 || es[0].Seq != 20 || es[0].Redo != 2 || es[0].Undo != 0 {
		t.Errorf("merged = %+v", es[0])
	}
	if b.Merges != 1 {
		t.Errorf("merges = %d", b.Merges)
	}
}

func TestBackEndMergeRevalidates(t *testing.T) {
	// A writeback invalidated the buffered entry; a newer store to the same
	// address within the region must re-validate it (the redo is new data).
	b := NewBackEnd(8)
	b.Accept(Entry{Kind: KindData, Addr: 0x100, Redo: 1, Seq: 10, FirstSeq: 10, Valid: true})
	b.ScanInvalidate(0x100, 15)
	if b.Entries()[0].Valid {
		t.Fatal("scan did not invalidate")
	}
	b.Accept(Entry{Kind: KindData, Addr: 0x100, Redo: 2, Seq: 20, FirstSeq: 20, Valid: true})
	if !b.Entries()[0].Valid {
		t.Error("merge did not re-validate the entry for the newer store")
	}
}

func TestNoMergeFlags(t *testing.T) {
	f := NewFrontEnd(8)
	f.NoMerge = true
	f.AddStore(0x100, 0, 1, 1)
	f.AddStore(0x100, 1, 2, 2)
	if f.Len() != 2 || f.Merges != 0 {
		t.Errorf("NoMerge front-end merged anyway: len=%d merges=%d", f.Len(), f.Merges)
	}

	b := NewBackEnd(8)
	b.NoMerge = true
	b.Accept(Entry{Kind: KindData, Addr: 0x100, Seq: 1, FirstSeq: 1, Valid: true})
	b.Accept(Entry{Kind: KindData, Addr: 0x100, Seq: 2, FirstSeq: 2, Valid: true})
	if b.Len() != 2 || b.Merges != 0 {
		t.Errorf("NoMerge back-end merged anyway: len=%d merges=%d", b.Len(), b.Merges)
	}
}

func TestNoElideFlag(t *testing.T) {
	f := NewFrontEnd(8)
	f.NoElide = true
	ok, elided := f.AddBoundary(1, 0, 0, 0, 0, nil, false, false, false)
	if !ok || elided {
		t.Error("NoElide still elided a store-free boundary")
	}
	if f.Len() != 1 {
		t.Errorf("len = %d", f.Len())
	}
}

// TestFrontEndColdBoundaryAllocs pins the pool-miss path: N boundaries on a
// fresh front-end with nothing recycled carve their checkpoint and emit
// backings from chunks, costing about N/chunk allocations, not N.
func TestFrontEndColdBoundaryAllocs(t *testing.T) {
	const n = 512
	emits := []uint64{1, 2}
	got := testing.AllocsPerRun(10, func() {
		f := NewFrontEnd(n)
		for i := 0; i < n; i++ {
			f.StageCkpt(3, uint64(i))
			if ok, _ := f.AddBoundary(uint64(i+1), 0, 0, 0, 0x8000, emits, true, false, false); !ok {
				t.Fatal("boundary rejected")
			}
		}
	})
	// Each backing carves 4 elements; two slabs; plus the front-end, its
	// ring and the staging slice.
	if bound := 2*n*4/payloadChunk + 3; got > float64(bound) {
		t.Errorf("%d cold boundaries made %.0f allocations, want <= %d", n, got, bound)
	}
}

// TestFrontEndRecycledBackingGrows: a recycled carved backing that must grow
// for a bigger payload reallocates rather than writing into the backing
// carved after it.
func TestFrontEndRecycledBackingGrows(t *testing.T) {
	f := NewFrontEnd(8)
	f.StageCkpt(1, 10)
	f.AddBoundary(1, 0, 0, 0, 0, []uint64{100}, true, false, false)
	f.StageCkpt(2, 20)
	f.AddBoundary(2, 0, 0, 0, 0, []uint64{200}, true, false, false)
	a, _ := f.Pop()
	b := *f.Peek()
	f.Recycle(a.Ckpts, a.Emits)
	emits := make([]uint64, 9)
	for r := isa.Reg(0); r < 9; r++ {
		f.StageCkpt(r, 99)
		emits[r] = 99
	}
	f.AddBoundary(3, 0, 0, 0, 0, emits, true, false, false)
	if b.Ckpts[0] != (RegCkpt{Reg: 2, Val: 20}) || b.Emits[0] != 200 {
		t.Fatalf("growing a recycled backing clobbered its neighbour: %v %v", b.Ckpts, b.Emits)
	}
	c := f.Entries()[f.Len()-1]
	if len(c.Ckpts) != 9 || len(c.Emits) != 9 {
		t.Fatalf("grown boundary carries %d ckpts, %d emits; want 9, 9", len(c.Ckpts), len(c.Emits))
	}
}
