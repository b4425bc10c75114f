package proxy

import (
	"math"
	"reflect"
	"testing"
	"unsafe"

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
	e := f.q.live()[0]
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
	if f.Len() != 1 || len(frontEntries(f)[0].Ckpts) != 1 {
		t.Errorf("boundary entry = %+v", frontEntries(f))
	}
	// Forced boundaries (halt / thread start) are never elided.
	ok, elided = f.AddBoundary(3, 0, 0, 0, 0, nil, false, true, true)
	if !ok || elided {
		t.Error("forced boundary elided")
	}
	if !frontEntries(f)[1].Halt {
		t.Error("halt flag lost")
	}
}

func TestStagedCkptOverwrite(t *testing.T) {
	f := newFront(8)
	f.StageCkpt(5, 1)
	f.StageCkpt(5, 2)
	f.StageCkpt(6, 3)
	if len(f.staged) != 2 {
		t.Fatalf("staged = %d, want 2", len(f.staged))
	}
	f.AddBoundary(1, 0, 0, 0, 0, nil, false, false, false)
	cks := frontEntries(f)[0].Ckpts
	if len(cks) != 2 || cks[0].Reg != 5 || cks[0].Val != 2 {
		t.Errorf("ckpts = %+v", cks)
	}
	if len(f.staged) != 0 {
		t.Error("staging not cleared after boundary")
	}
}

func TestFrontEndFIFOPop(t *testing.T) {
	f := newFront(8)
	f.AddStore(0x100, 0, 1, 1)
	f.AddStore(0x140, 0, 2, 2)
	if e := f.Peek(); e.Addr != 0x100 {
		t.Errorf("peek = %+v", e)
	}
	f.DropHead()
	if e := f.Peek(); e.Addr != 0x140 {
		t.Errorf("peek2 = %+v", e)
	}
	f.DropHead()
	if f.Len() != 0 {
		t.Errorf("len %d after dropping both", f.Len())
	}
}

func TestBackEndRegionPop(t *testing.T) {
	b := newBack(16)
	b.AcceptFrom(&Rec{Addr: 0x100, Redo: 1, Seq: 1, Valid: true})
	b.AcceptFrom(&Rec{Addr: 0x140, Redo: 2, Seq: 2, Valid: true})
	if _, ok := b.Region(0); ok {
		t.Error("region complete without boundary")
	}
	acceptBoundary(b, 1)
	b.AcceptFrom(&Rec{Addr: 0x180, Redo: 3, Seq: 3, Valid: true})
	if _, ok := b.Region(0); !ok {
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
	b.AcceptFrom(&Rec{Addr: 0x100, Seq: 5, Valid: true})
	acceptBoundary(b, 1)
	b.AcceptFrom(&Rec{Addr: 0x100, Seq: 9, Valid: true})

	// Writeback with seq 6: invalidates the region-1 entry (seq 5) but not
	// the newer one (seq 9) — the cross-core-safe refinement.
	n := b.ScanInvalidate(0x100, 6)
	if n != 1 {
		t.Fatalf("invalidated %d entries, want 1", n)
	}
	es := b.q.live()
	if es[0].Valid || !es[2].Valid {
		t.Errorf("valid bits wrong: %v %v", es[0].Valid, es[2].Valid)
	}
}

func TestBackEndOverflowDetected(t *testing.T) {
	b := newBack(2)
	b.AcceptFrom(&Rec{Addr: 1, Valid: true})
	b.AcceptFrom(&Rec{Addr: 2, Valid: true})
	if b.AcceptFrom(&Rec{Addr: 3, Valid: true}) {
		t.Error("overflow accepted")
	}
	if b.Overflow != 1 {
		t.Errorf("overflow count = %d", b.Overflow)
	}
	// Boundary entries always fit.
	if !acceptBoundary(b, 1) {
		t.Error("boundary rejected")
	}
}

func TestPathLatencyAndBandwidth(t *testing.T) {
	p := newPath(40, 8)
	d0 := p.SendFrom(&Rec{Addr: 1, Valid: true}, 100)
	d1 := p.SendFrom(&Rec{Addr: 2, Valid: true}, 100)
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

	p.SendFrom(&Rec{Addr: 0x100, Seq: 5, Valid: true}, 20) // arrives 60
	p.SendFrom(&Rec{Addr: 0x100, Seq: 20, Valid: true}, 21)
	p.SendFrom(&Rec{Addr: 0x200, Seq: 5, Valid: true}, 22)

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
	p.SendFrom(&Rec{Addr: 0x100, Seq: 5, Valid: true}, 50)
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
			p.SendFrom(&Rec{Addr: 0x100, Seq: tc.seq, Valid: true}, tc.sendAt)
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
	p.SendFrom(&Rec{Addr: 0x100, Seq: 5, Valid: true}, 0)
	harvested := p.DrainAll(nil, nil, nil)
	if len(harvested) != 1 || !harvested[0].Valid {
		t.Fatalf("crash harvest = %+v, want 1 valid entry (window not applied)", harvested)
	}
	if p.InFlight() != 0 {
		t.Errorf("DrainAll left %d in flight", p.InFlight())
	}
	if p.win.Len() != 1 {
		t.Fatalf("window emptied by DrainAll (len=%d)", p.win.Len())
	}

	// Reuse the drained path: departs at 3 (bandwidth slot 1 passed), arrives
	// 13 <= 15 — the surviving window must still invalidate it.
	p.SendFrom(&Rec{Addr: 0x100, Seq: 6, Valid: true}, 3)
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
	if we := p.win.t.Get(0x100); we == nil || *we != (windowEntry{expiry: 30, seq: 3}) {
		t.Fatalf("refreshed window = %+v, want expiry 30 seq 3", we)
	}
	p.SendFrom(&Rec{Addr: 0x100, Seq: 3, Valid: true}, 15) // arrives 25 <= 30
	p.SendFrom(&Rec{Addr: 0x100, Seq: 5, Valid: true}, 16) // arrives 26, seq 5 > 3
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
	p.SendFrom(&Rec{Addr: 1}, 0)
	bd := marker(p.bd, 7)
	p.SendFrom(&bd, 0)
	got := p.DrainAll(nil, nil, nil)
	if len(got) != 2 || got[0].Addr != 1 || got[1].Kind != KindBoundary || got[1].Region != 7 {
		t.Errorf("drain = %+v", got)
	}
	if p.InFlight() != 0 {
		t.Error("packets left after drain")
	}
}

// TestUnitHarvest: a harvest lists the back end's records, the wire's and
// the front end's, oldest first, with every boundary's payloads inline and
// copied — running the unit on afterwards changes none of them.
func TestUnitHarvest(t *testing.T) {
	u := &NewUnits(1, 8, 8, 40, 8, nil)[0]
	f := &u.Front
	region := func(r uint64) {
		f.AddStore(0x100*r, 0, r, r)
		f.StageCkpt(isa.Reg(r), 10*r)
		f.AddBoundary(r, 0, 0, 0, 0x8000, []uint64{100 * r}, true, false, false)
	}
	region(1)
	region(2)
	for f.Len() > 0 {
		u.Path.SendFrom(f.Peek(), 0)
		f.DropHead()
	}
	u.Path.DeliverEach(49, func(r *Rec, _ *Boundary, _ uint64, _ bool) { u.Back.AcceptFrom(r) })
	region(3)
	got := harvest(u)
	if len(got) != 6 || u.Path.InFlight() != 0 {
		t.Fatalf("harvest = %+v (%d left in flight), want 6 entries", got, u.Path.InFlight())
	}
	for i, e := range got {
		r := uint64(i/2 + 1)
		if i%2 == 0 && (e.Kind != KindData || e.Addr != 0x100*r) {
			t.Errorf("entry %d = %+v, want region %d's store", i, e, r)
		}
		if i%2 == 1 && (e.Region != r || len(e.Ckpts) != 1 || e.Ckpts[0] != (RegCkpt{isa.Reg(r), 10 * r}) ||
			len(e.Emits) != 1 || e.Emits[0] != 100*r) {
			t.Errorf("entry %d = %+v, want region %d's boundary", i, e, r)
		}
	}
	before := copyEntries(got)
	for r := uint64(4); r < 40; r++ {
		region(r)
		for f.Len() > 0 {
			u.Path.SendFrom(f.Peek(), 0)
			f.DropHead()
		}
		u.Path.DeliverEach(^uint64(0), func(r *Rec, _ *Boundary, _ uint64, _ bool) { u.Back.AcceptFrom(r) })
		for {
			if _, ok := u.Back.PopRegion(); !ok {
				break
			}
		}
	}
	if !reflect.DeepEqual(got, before) {
		t.Errorf("running the unit changed its harvest:\n%+v\nwas\n%+v", got, before)
	}
}

func TestFrontEndMergeKeepsFirstSeq(t *testing.T) {
	f := newFront(8)
	f.AddStore(0x100, 0, 1, 10)
	f.AddStore(0x100, 1, 2, 20) // merged
	e := f.q.live()[0]
	if e.FirstSeq != 10 || e.Seq != 20 {
		t.Errorf("merged entry FirstSeq=%d Seq=%d, want 10/20", e.FirstSeq, e.Seq)
	}
	if e.Undo != 0 {
		t.Errorf("merged undo = %d, want the oldest image 0", e.Undo)
	}
}

func TestBackEndMergeKeepsFirstSeq(t *testing.T) {
	b := newBack(8)
	b.AcceptFrom(&Rec{Addr: 0x100, Undo: 0, Redo: 1, Seq: 10, FirstSeq: 10, Valid: true})
	b.AcceptFrom(&Rec{Addr: 0x100, Undo: 1, Redo: 2, Seq: 20, FirstSeq: 20, Valid: true})
	es := b.q.live()
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
	b.AcceptFrom(&Rec{Addr: 0x100, Redo: 1, Seq: 10, FirstSeq: 10, Valid: true})
	b.ScanInvalidate(0x100, 15)
	if b.q.live()[0].Valid {
		t.Fatal("scan did not invalidate")
	}
	b.AcceptFrom(&Rec{Addr: 0x100, Redo: 2, Seq: 20, FirstSeq: 20, Valid: true})
	if !b.q.live()[0].Valid {
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
	b.AcceptFrom(&Rec{Addr: 0x100, Seq: 1, FirstSeq: 1, Valid: true})
	b.AcceptFrom(&Rec{Addr: 0x100, Seq: 2, FirstSeq: 2, Valid: true})
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

// newFront, newBack and newPath build one core's proxy hardware through
// NewUnits, exactly as a machine does, and return the part under test. The
// path consults its own monitoring window (p.win).
func newFront(capacity int) *FrontEnd { return &NewUnits(1, capacity, 1, 0, 1, nil)[0].Front }
func newBack(capacity int) *BackEnd   { return &NewUnits(1, 1, capacity, 0, 1, nil)[0].Back }
func newPath(latency, interval uint64) *Path {
	return &NewUnits(1, 1, 1, latency, interval, &Window{Latency: latency})[0].Path
}

// frontEntries returns f's buffered records as entries, payloads included.
func frontEntries(f *FrontEnd) []Entry {
	return f.bd.appendEntries(nil, f.q.live(), new([]RegCkpt), new([]uint64))
}

// harvest returns u's harvest, payload copies made one by one.
func harvest(u *Unit) []Entry { return u.Harvest(nil, new([]RegCkpt), new([]uint64)) }

// marker adds a boundary for region to the table t and returns its marker
// record, as AddBoundary does for the front end.
func marker(t *bounds, region uint64) Rec {
	*t.q.add() = Boundary{Region: region}
	return Rec{Kind: KindBoundary, bd: uint32(t.q.next() - 1)}
}

// acceptBoundary hands the back end a marker for a fresh boundary of region.
func acceptBoundary(b *BackEnd, region uint64) bool {
	r := marker(b.bd, region)
	return b.AcceptFrom(&r)
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
		p.SendFrom(&Rec{Addr: 0x100, Seq: 5, Valid: true}, 0)
		if got := deliver(p, 10); len(got) != 1 || got[0].Valid || p.WindowHits != 1 {
			t.Errorf("path %d: delivered %+v with %d hits, want one invalidated entry", i, got, p.WindowHits)
		}
	}
	if w.Len() != 1 {
		t.Errorf("window holds %d entries, want 1", w.Len())
	}
}

// deliver collects copies of every record the path delivers by now.
func deliver(p *Path, now uint64) []Rec {
	var out []Rec
	p.DeliverEach(now, func(r *Rec, _ *Boundary, _ uint64, _ bool) { out = append(out, *r) })
	return out
}

// TestDeliverEachArrivalCycle: each delivered entry comes with its true
// wire-arrival cycle (departure slot + latency), not the service cycle.
func TestDeliverEachArrivalCycle(t *testing.T) {
	p := newPath(40, 8)
	p.SendFrom(&Rec{Addr: 1}, 100)
	bd := marker(p.bd, 1)
	p.SendFrom(&bd, 100)
	var arrivals []uint64
	var regions []uint64
	p.DeliverEach(500, func(_ *Rec, b *Boundary, arrives uint64, _ bool) {
		arrivals = append(arrivals, arrives)
		if b != nil {
			regions = append(regions, b.Region)
		}
	})
	if len(arrivals) != 2 || arrivals[0] != 140 || arrivals[1] != 148 {
		t.Errorf("arrivals = %v, want [140 148]", arrivals)
	}
	if len(regions) != 1 || regions[0] != 1 {
		t.Errorf("boundaries delivered for regions %v, want [1]", regions)
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
		u.Path.DeliverEach(now, func(r *Rec, _ *Boundary, _ uint64, _ bool) { u.Back.AcceptFrom(r) })
		if u.Path.Backlog() <= now {
			u.Path.SendFrom(&Rec{Addr: now}, now)
		}
	}
	if &u.Front.q.buf[:1][0] != ring || &u.Path.q.buf[:1][0] != flight || cap(u.Front.staged) != isa.NumRegs {
		t.Error("a ring carved at its bound was reallocated")
	}
	if v.Front.Len() != 0 || v.Path.InFlight() != 0 || v.Back.Len() != 0 || len(v.Front.staged) != 0 {
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
			b.AcceptFrom(&Rec{Addr: 8 * i, Redo: r, Seq: 3*r + i, FirstSeq: 3*r + i, Valid: true})
		}
		acceptBoundary(&b, r)
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
		p.SendFrom(&Rec{Addr: i}, i)
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
// before it grows, and an element keeps its position through compaction.
func TestRingReclaimsSlots(t *testing.T) {
	r := ring[Rec]{buf: make([]Rec, 0, 4)}
	for i := uint64(0); i < 4; i++ {
		*r.add() = Rec{Addr: i}
	}
	r.drop(2)
	backing := &r.buf[:1][0]
	*r.add() = Rec{Addr: 4}
	if &r.buf[0] != backing || cap(r.buf) != 4 {
		t.Error("ring grew while it had dead slots to reclaim")
	}
	for i, want := range []uint64{2, 3, 4} {
		if e := r.live()[i]; e.Addr != want {
			t.Errorf("live[%d].Addr = %d, want %d", i, e.Addr, want)
		}
		if e := r.at(want); e.Addr != want {
			t.Errorf("position %d holds addr %d after compaction", want, e.Addr)
		}
	}
	if pos := r.push([]Rec{{Addr: 5}, {Addr: 6}}); pos != 5 || r.first() != 2 || cap(r.buf) < 5 {
		t.Errorf("push at %d (first %d, cap %d), want position 5 on a grown ring", pos, r.first(), cap(r.buf))
	}
	if s := r.span(5, 2); s[0].Addr != 5 || s[1].Addr != 6 || cap(s) != 2 {
		t.Errorf("span(5, 2) = %+v, cap %d", s, cap(s))
	}
	r.drop(r.len())
	if len(r.buf) != 0 || r.next() != 7 {
		t.Errorf("an emptied ring did not rewind: buf len %d, next %d", len(r.buf), r.next())
	}
}

// TestRingElementsPointerFree pins the compact layout: every ring's element
// type holds no pointers, so the rings move records as plain memory and the
// collector never scans them, and a data record fits in 48 bytes (the
// crash-image Entry is 184).
func TestRingElementsPointerFree(t *testing.T) {
	var u Unit
	for _, typ := range []reflect.Type{
		reflect.TypeOf(u.Front.q.buf).Elem(), reflect.TypeOf(u.Path.q.buf).Elem(),
		reflect.TypeOf(u.Back.q.buf).Elem(), reflect.TypeOf(u.Back.marks.buf).Elem(),
		reflect.TypeOf(u.bd.q.buf).Elem(), reflect.TypeOf(u.bd.ckpts.buf).Elem(),
		reflect.TypeOf(u.bd.emits.buf).Elem(),
	} {
		if hasPointers(typ) {
			t.Errorf("ring element %v holds pointers", typ)
		}
	}
	if n := unsafe.Sizeof(Rec{}); n > 48 {
		t.Errorf("Rec is %d bytes, want <= 48", n)
	}
}

// hasPointers reports whether a value of typ holds any pointer.
func hasPointers(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if hasPointers(typ.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return hasPointers(typ.Elem())
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	}
	return true
}

// TestBoundaryPayloadsZeroAlloc: at steady state, regions whose boundaries
// carry register checkpoints, a sync descriptor and output emits travel
// front end to back end and pop with their payloads intact without a single
// allocation — the boundary table and payload arenas recycle in place.
func TestBoundaryPayloadsZeroAlloc(t *testing.T) {
	u := &NewUnits(1, 32, 256, 40, 8, nil)[0]
	emits := []uint64{7, 8, 9}
	var now, region uint64
	run := func() {
		region++
		u.Front.AddStore(0x1000, 0, region, region)
		for r := isa.Reg(1); r <= 5; r++ {
			u.Front.StageCkpt(r, region)
		}
		u.Front.StageSync(SyncRec{Op: 1, Seq: region})
		if ok, _ := u.Front.AddBoundary(region, 0, 0, 0, 0x8000, emits, true, false, false); !ok {
			t.Fatal("boundary rejected")
		}
		for u.Front.Len() > 0 {
			now = u.Path.SendFrom(u.Front.Peek(), now) + 1
			u.Front.DropHead()
		}
		u.Path.DeliverEach(now+u.Path.Latency, func(r *Rec, _ *Boundary, _ uint64, _ bool) { u.Back.AcceptFrom(r) })
		cr, ok := u.Back.PopRegion()
		if !ok || cr.Boundary.Region != region || len(cr.Ckpts) != 5 || cr.Ckpts[4] != (RegCkpt{5, region}) ||
			len(cr.Emits) != 3 || cr.Emits[2] != 9 || cr.Boundary.Sync.Seq != region {
			t.Fatalf("region %d popped as %+v (boundary %+v)", region, cr, cr.Boundary)
		}
	}
	for i := 0; i < 100; i++ {
		run()
	}
	// One measured run of the whole loop: AllocsPerRun truncates its
	// average to a whole number, so a rare allocation must not be averaged
	// away.
	got := testing.AllocsPerRun(1, func() {
		for range 1000 {
			run()
		}
	})
	if got != 0 {
		t.Errorf("1,000 regions with payload-carrying boundaries made %.0f allocations, want 0", got)
	}
	bt := &u.bd
	if bt.q.len() != 0 || bt.ckpts.len() != 0 || bt.emits.len() != 0 ||
		cap(bt.q.buf) != boundStart || cap(bt.ckpts.buf) != ckptStart || cap(bt.emits.buf) != emitStart {
		t.Errorf("after every region popped the table holds %d boundaries, %d checkpoints and %d emits in backings of %d, %d and %d",
			bt.q.len(), bt.ckpts.len(), bt.emits.len(), cap(bt.q.buf), cap(bt.ckpts.buf), cap(bt.emits.buf))
	}
}
