package proxy

import (
	"math"
	"testing"

	"capri/internal/isa"
)

func TestFrontEndAllocAndMerge(t *testing.T) {
	f := newFront(8)
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
	f := newFront(8)
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
	f := newFront(2)
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
	f := newFront(8)
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
	f := newFront(8)
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
	f := newFront(8)
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
	b := newBack(16)
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
	b := newBack(16)
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
	b := newBack(2)
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
	p := newPath(40, 8)
	d0 := p.Send(Entry{Kind: KindData, Addr: 1, Valid: true}, 100)
	d1 := p.Send(Entry{Kind: KindData, Addr: 2, Valid: true}, 100)
	if d0 != 100 || d1 != 108 {
		t.Errorf("departures = %d,%d", d0, d1)
	}
	if got := deliver(p, 139); len(got) != 0 {
		t.Errorf("early delivery: %v", got)
	}
	if got := deliver(p, 140); len(got) != 1 || got[0].Addr != 1 {
		t.Errorf("delivery@140 = %v", got)
	}
	if got := deliver(p, 148); len(got) != 1 || got[0].Addr != 2 {
		t.Errorf("delivery@148 = %v", got)
	}
}

func TestPathMonitoringWindow(t *testing.T) {
	p := newPath(40, 1)
	// Writeback for addr 0x100 seq 10 arrives at cycle 50: window open until 90.
	p.win.Note(0x100, 10, 50)

	p.Send(Entry{Kind: KindData, Addr: 0x100, Seq: 5, Valid: true}, 20) // arrives 60
	p.Send(Entry{Kind: KindData, Addr: 0x100, Seq: 20, Valid: true}, 21)
	p.Send(Entry{Kind: KindData, Addr: 0x200, Seq: 5, Valid: true}, 22)

	got := deliver(p, 100)
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
	p := newPath(10, 1)
	p.win.Note(0x100, 10, 0) // window closes at 10
	p.Send(Entry{Kind: KindData, Addr: 0x100, Seq: 5, Valid: true}, 50)
	got := deliver(p, 100)
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
			p := newPath(latency, 1)
			p.win.Note(0x100, 10, 0) // expiry = 0 + latency
			p.Send(Entry{Kind: KindData, Addr: 0x100, Seq: tc.seq, Valid: true}, tc.sendAt)
			got := deliver(p, tc.sendAt+latency)
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
// same open window. DrainAll also empties the wire: a crash harvest is not a
// wire arrival, so nothing it took is delivered afterwards.
func TestPathWindowSurvivesDrainAll(t *testing.T) {
	const latency = 10
	p := newPath(latency, 1)

	p.win.Note(0x100, 10, 5) // expiry = 15
	p.Send(Entry{Kind: KindData, Addr: 0x100, Seq: 5, Valid: true}, 0)
	harvested := p.DrainAll(nil)
	if len(harvested) != 1 || !harvested[0].Valid {
		t.Fatalf("crash harvest = %+v, want 1 valid entry (window not applied)", harvested)
	}
	if p.InFlight() != 0 || p.Delivered != 0 {
		t.Errorf("DrainAll left %d in flight, counted %d deliveries", p.InFlight(), p.Delivered)
	}
	if p.win.Len() != 1 {
		t.Fatalf("window emptied by DrainAll (len=%d)", p.win.Len())
	}

	// Reuse the drained path: departs at 3 (bandwidth slot 1 passed), arrives
	// 13 <= 15 — the surviving window must still invalidate it.
	p.Send(Entry{Kind: KindData, Addr: 0x100, Seq: 6, Valid: true}, 3)
	got := deliver(p, 20)
	if len(got) != 1 || got[0].Valid {
		t.Errorf("post-drain delivery = %+v, want 1 stale-invalidated entry", got)
	}
}

// TestPathWindowRefresh pins Window.Note's refresh rule (the auditor
// mirrors it): a later writeback re-arms the window whenever it extends the
// expiry — even with an *older* sequence, which then narrows seq coverage to
// stores at or below it.
func TestPathWindowRefresh(t *testing.T) {
	const latency = 10
	p := newPath(latency, 1)
	p.win.Note(0x100, 10, 0) // expiry 10, seq 10
	p.win.Note(0x100, 3, 20) // refresh: expiry 30, seq 3
	if we := p.win.m[0x100]; we != (windowEntry{expiry: 30, seq: 3}) {
		t.Fatalf("refreshed window = %+v, want expiry 30 seq 3", we)
	}
	p.Send(Entry{Kind: KindData, Addr: 0x100, Seq: 3, Valid: true}, 15) // arrives 25 <= 30
	p.Send(Entry{Kind: KindData, Addr: 0x100, Seq: 5, Valid: true}, 16) // arrives 26, seq 5 > 3
	got := deliver(p, 40)
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
	p := newPath(40, 8)
	p.Send(Entry{Kind: KindData, Addr: 1}, 0)
	p.Send(Entry{Kind: KindBoundary, Region: 7}, 0)
	got := p.DrainAll(nil)
	if len(got) != 2 || got[1].Region != 7 {
		t.Errorf("drain = %+v", got)
	}
	if p.InFlight() != 0 {
		t.Error("packets left after drain")
	}
}

func TestFrontEndMergeKeepsFirstSeq(t *testing.T) {
	f := newFront(8)
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
	b := newBack(8)
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
	b := newBack(8)
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
	f := newFront(8)
	f.NoMerge = true
	f.AddStore(0x100, 0, 1, 1)
	f.AddStore(0x100, 1, 2, 2)
	if f.Len() != 2 || f.Merges != 0 {
		t.Errorf("NoMerge front-end merged anyway: len=%d merges=%d", f.Len(), f.Merges)
	}

	b := newBack(8)
	b.NoMerge = true
	b.Accept(Entry{Kind: KindData, Addr: 0x100, Seq: 1, FirstSeq: 1, Valid: true})
	b.Accept(Entry{Kind: KindData, Addr: 0x100, Seq: 2, FirstSeq: 2, Valid: true})
	if b.Len() != 2 || b.Merges != 0 {
		t.Errorf("NoMerge back-end merged anyway: len=%d merges=%d", b.Len(), b.Merges)
	}
}

func TestNoElideFlag(t *testing.T) {
	f := newFront(8)
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
		f := newFront(n)
		for i := 0; i < n; i++ {
			f.StageCkpt(3, uint64(i))
			if ok, _ := f.AddBoundary(uint64(i+1), 0, 0, 0, 0x8000, emits, true, false, false); !ok {
				t.Fatal("boundary rejected")
			}
		}
	})
	// Each backing carves 4 elements from one of two slabs; plus NewUnits'
	// six backings (units, entries, packets, staging, two pools).
	if bound := 2*n*4/payloadChunk + 6; got > float64(bound) {
		t.Errorf("%d cold boundaries made %.0f allocations, want <= %d", n, got, bound)
	}
}

// TestFrontEndRecycledBackingGrows: a recycled carved backing that must grow
// for a bigger payload reallocates rather than writing into the backing
// carved after it.
func TestFrontEndRecycledBackingGrows(t *testing.T) {
	f := newFront(8)
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

// newFront, newBack and newPath build one core's proxy hardware through
// NewUnits, exactly as a machine does, and return the part under test. The
// path consults its own monitoring window (p.win).
func newFront(capacity int) *FrontEnd { return &NewUnits(1, capacity, 1, 0, 1, nil)[0].Front }
func newBack(capacity int) *BackEnd   { return &NewUnits(1, 1, capacity, 0, 1, nil)[0].Back }
func newPath(latency, interval uint64) *Path {
	return &NewUnits(1, 1, 1, latency, interval, &Window{Latency: latency})[0].Path
}

// TestUnitsShareWindow: every path NewUnits builds consults the one window
// it is given, so a writeback noted once invalidates stale entries arriving
// on any core's path, and each path counts only its own hits.
func TestUnitsShareWindow(t *testing.T) {
	w := &Window{Latency: 10}
	us := NewUnits(2, 1, 1, 10, 1, w)
	w.Note(0x100, 10, 0) // expiry 10
	for i := range us {
		p := &us[i].Path
		p.Send(Entry{Kind: KindData, Addr: 0x100, Seq: 5, Valid: true}, 0)
		if got := deliver(p, 10); len(got) != 1 || got[0].Valid || p.WindowHits != 1 {
			t.Errorf("path %d: delivered %+v with %d hits, want one invalidated entry", i, got, p.WindowHits)
		}
	}
	if w.Len() != 1 {
		t.Errorf("window holds %d entries, want 1", w.Len())
	}
}

// deliver collects copies of every entry the path delivers by now.
func deliver(p *Path, now uint64) []Entry {
	var out []Entry
	p.DeliverEach(now, func(e *Entry, _ uint64, _ bool) { out = append(out, *e) })
	return out
}

// TestDeliverEachArrivalCycle: each delivered entry comes with its true
// wire-arrival cycle (departure slot + latency), not the service cycle.
func TestDeliverEachArrivalCycle(t *testing.T) {
	p := newPath(40, 8)
	p.Send(Entry{Kind: KindData, Addr: 1}, 100)
	p.Send(Entry{Kind: KindBoundary, Region: 1}, 100)
	var arrivals []uint64
	p.DeliverEach(500, func(_ *Entry, arrives uint64, _ bool) { arrivals = append(arrivals, arrives) })
	if len(arrivals) != 2 || arrivals[0] != 140 || arrivals[1] != 148 {
		t.Errorf("arrivals = %v, want [140 148]", arrivals)
	}
}

// TestUnitsRingsCarvedAtBound: NewUnits carves every bounded ring at its
// bound, so a unit driven at full occupancy never reallocates them, and the
// units share nothing: filling one core's rings leaves its neighbour's
// untouched.
func TestUnitsRingsCarvedAtBound(t *testing.T) {
	const frontCap, latency, interval = 4, 40, 8
	us := NewUnits(2, frontCap, 16, latency, interval, nil)
	u, v := &us[0], &us[1]
	ring, flight := &u.Front.q.buf[:1][0], &u.Path.q.buf[:1][0]
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		u.Front.StageCkpt(r, uint64(r))
	}
	for i := uint64(0); i < frontCap; i++ {
		if !u.Front.AddStore(0x100+8*i, 0, i, i+1) {
			t.Fatal("front-end full below its capacity")
		}
	}
	for now := uint64(0); now < 400; now++ {
		u.Path.DeliverEach(now, func(e *Entry, _ uint64, _ bool) { u.Back.AcceptFrom(e) })
		if u.Path.Backlog() <= now {
			u.Path.Send(Entry{Kind: KindData, Addr: now}, now)
		}
	}
	if &u.Front.q.buf[:1][0] != ring || &u.Path.q.buf[:1][0] != flight || cap(u.Front.staged) != isa.NumRegs {
		t.Error("a ring carved at its bound was reallocated")
	}
	if v.Front.Len() != 0 || v.Path.InFlight() != 0 || v.Back.Len() != 0 || len(v.Front.Staged()) != 0 {
		t.Error("filling one unit's rings touched its neighbour")
	}
}

// TestBackEndRingReusesSlots: regions popped off the back-end leave their
// slots in place for phase 2 to read, and later accepts compact the live
// window instead of growing the ring while it has dead slots to reclaim.
func TestBackEndRingReusesSlots(t *testing.T) {
	b := NewUnits(1, 1, 8, 0, 1, nil)[0].Back
	for r := uint64(1); r <= 100; r++ {
		for i := uint64(0); i < 3; i++ {
			b.Accept(Entry{Kind: KindData, Addr: 8 * i, Redo: r, Seq: 3*r + i, FirstSeq: 3*r + i, Valid: true})
		}
		b.Accept(Entry{Kind: KindBoundary, Region: r})
		if r%2 == 1 {
			continue // keep one region buffered across the next accepts
		}
		for want := r - 1; want <= r; want++ {
			reg, ok := b.PopRegion()
			if !ok || reg.Boundary.Region != want || len(reg.Data) != 3 || reg.Data[2].Redo != want {
				t.Fatalf("pop %d: %+v", want, reg)
			}
		}
	}
	if b.Len() != 0 || cap(b.q.buf) != backStart {
		t.Errorf("len %d cap %d after draining, want 0 and the carved %d", b.Len(), cap(b.q.buf), backStart)
	}
}

// TestPathCarveCapped: a path's packet ring is carved at its in-flight bound
// only up to flightCarveMax, so a latency no real path has (a crash image is
// untrusted input) sizes no allocation. A path whose bound exceeds the cap
// still carries every packet, in order, by growing its ring with traffic.
func TestPathCarveCapped(t *testing.T) {
	for _, latency := range []uint64{1 << 40, math.MaxUint64} {
		if c := cap(newPath(latency, 1).q.buf); c != flightCarveMax {
			t.Errorf("latency %d: ring carved at %d, want %d", latency, c, flightCarveMax)
		}
	}
	const latency, n = 3 * flightCarveMax, 2 * flightCarveMax
	p := newPath(latency, 1)
	for i := uint64(0); i < n; i++ {
		p.Send(Entry{Kind: KindData, Addr: i}, i)
	}
	got := deliver(p, n+latency)
	if len(got) != n {
		t.Fatalf("delivered %d of %d packets", len(got), n)
	}
	for i, e := range got {
		if e.Addr != uint64(i) {
			t.Fatalf("packet %d carries addr %d", i, e.Addr)
		}
	}
}

// TestRingReclaimsSlots: the shared ring compacts into dead head slots
// before it grows, clearing the slots it moved entries out of.
func TestRingReclaimsSlots(t *testing.T) {
	r := ring[Entry]{buf: make([]Entry, 0, 4)}
	for i := uint64(0); i < 4; i++ {
		*r.add() = Entry{Addr: i, Emits: []uint64{i}}
	}
	r.drop(2)
	backing := &r.buf[:1][0]
	*r.add() = Entry{Addr: 4}
	if &r.buf[0] != backing || cap(r.buf) != 4 {
		t.Error("ring grew while it had dead slots to reclaim")
	}
	for i, want := range []uint64{2, 3, 4} {
		if e := r.live()[i]; e.Addr != want {
			t.Errorf("live[%d].Addr = %d, want %d", i, e.Addr, want)
		}
	}
	if r.buf[:4][3].Emits != nil {
		t.Error("compaction left a moved-from slot referencing a backing")
	}
	r.drop(r.len())
	if len(r.buf) != 0 {
		t.Errorf("an emptied ring did not rewind: buf len %d", len(r.buf))
	}
}

// TestRemovedEntriesReleaseBackings: every way an entry leaves a buffer or
// the path leaves its slot holding no Ckpts/Emits backing, so a backing the
// front end recycles is referenced by no dead slot.
func TestRemovedEntriesReleaseBackings(t *testing.T) {
	u := &NewUnits(1, 8, 8, 4, 1, nil)[0]
	bd := Entry{Kind: KindBoundary, Ckpts: []RegCkpt{{1, 1}}, Emits: []uint64{1}}
	held := func(s []Entry) bool { return s[0].Ckpts != nil || s[0].Emits != nil }
	*u.Front.q.add() = bd
	u.Front.DropHead()
	if held(u.Front.q.buf[:1]) {
		t.Error("front end: dropped head still holds its backings")
	}
	u.Path.Send(bd, 0)
	u.Path.DeliverEach(10, func(e *Entry, _ uint64, _ bool) { u.Back.AcceptFrom(e) })
	if e := u.Path.q.buf[:1][0].e; e.Ckpts != nil || e.Emits != nil {
		t.Error("path: delivered packet still holds its backings")
	}
	u.Path.Send(bd, 20)
	u.Path.DrainAll(nil)
	if e := u.Path.q.buf[:1][0].e; e.Ckpts != nil || e.Emits != nil {
		t.Error("path: harvested packet still holds its backings")
	}
	if _, ok := u.Back.PopRegion(); !ok || held(u.Back.q.buf[:1]) {
		t.Error("back end: popped boundary still holds its backings")
	}
}
