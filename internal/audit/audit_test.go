package audit

import (
	"path/filepath"
	"runtime"
	"testing"
)

const (
	testLat   = 40 // proxy-path latency for the window mirror
	testCores = 4  // machine core count the rule streams are audited against
	testAddr  = uint64(0x100000)
)

func testOpts() Options { return Options{ProxyLatency: testLat, Windows: true, Cores: testCores} }

// feed runs a stream through recorder+auditor (recorder first, as wired in
// the machine) and returns both.
func feed(t *testing.T, events []Event) (*FlightRecorder, *Auditor) {
	t.Helper()
	rec := NewFlightRecorder(0)
	aud := NewAuditor(testOpts())
	aud.AttachRecorder(rec)
	sink := Tee(rec, aud)
	for _, e := range events {
		sink.Tap(e)
	}
	return rec, aud
}

// legalStoreLife is the complete legal lifecycle of one persisted store:
// issue, commit, launch (data then marker), arrival, drain, redo write.
func legalStoreLife() []Event {
	return []Event{
		{Kind: EvStore, Core: 0, Cycle: 10, Addr: testAddr, Seq: 1, Region: 1, Val: 7, Val2: 0},
		{Kind: EvCommit, Core: 0, Cycle: 12, Region: 1},
		{Kind: EvLaunch, Core: 0, Cycle: 12, Addr: testAddr, Seq: 1, Val: 12},
		{Kind: EvLaunch, Core: 0, Cycle: 20, Region: 1, Val: 20, Flags: FlagBoundary},
		{Kind: EvBackArrive, Core: 0, Cycle: 52, Addr: testAddr, Seq: 1, Val: 52, Flags: FlagValid},
		{Kind: EvBackArrive, Core: 0, Cycle: 60, Region: 1, Val: 60, Flags: FlagBoundary},
		{Kind: EvDrain, Core: 0, Cycle: 76, Region: 1, Val: testAddr, Val2: testAddr, Count: 1},
		{Kind: EvDrainWrite, Core: 0, Cycle: 76, Addr: testAddr, Seq: 1, Region: 1, Val: 7, Flags: FlagApplied},
	}
}

func TestAuditorLegalLifecycle(t *testing.T) {
	_, aud := feed(t, legalStoreLife())
	if err := aud.Err(); err != nil {
		t.Fatalf("legal stream flagged: %v", err)
	}
	if aud.EventsAudited() != uint64(len(legalStoreLife())) {
		t.Fatalf("audited %d events, fed %d", aud.EventsAudited(), len(legalStoreLife()))
	}
}

// TestAuditorLegalWritebackThenStaleDrain pins the legitimate stale-drain
// case: a dirty writeback persists the line first, the back-end entry is
// invalidated on the scan... but an entry that already drained stale is
// correctly *dropped* by the sequence guard — applied=false must pass.
func TestAuditorLegalStaleDropped(t *testing.T) {
	events := []Event{
		{Kind: EvStore, Core: 0, Cycle: 10, Addr: testAddr, Seq: 1, Region: 1, Val: 7},
		{Kind: EvCommit, Core: 0, Cycle: 12, Region: 1},
		{Kind: EvLaunch, Core: 0, Cycle: 12, Addr: testAddr, Seq: 1, Val: 12},
		{Kind: EvLaunch, Core: 0, Cycle: 20, Region: 1, Val: 20, Flags: FlagBoundary},
		{Kind: EvBackArrive, Core: 0, Cycle: 52, Addr: testAddr, Seq: 1, Val: 52, Flags: FlagValid},
		{Kind: EvBackArrive, Core: 0, Cycle: 60, Region: 1, Val: 60, Flags: FlagBoundary},
		// A newer writeback lands before phase 2 books the region.
		{Kind: EvWriteback, Core: 0, Cycle: 70, Addr: testAddr, Seq: 9},
		{Kind: EvWritebackWord, Core: 0, Cycle: 70, Addr: testAddr, Seq: 9, Val: 11, Flags: FlagApplied},
		// The drain's redo write is correctly rejected by the guard.
		{Kind: EvDrain, Core: 0, Cycle: 90, Region: 1, Val: testAddr, Val2: testAddr, Count: 1},
		{Kind: EvDrainWrite, Core: 0, Cycle: 90, Addr: testAddr, Seq: 1, Region: 1, Val: 7},
	}
	_, aud := feed(t, events)
	if err := aud.Err(); err != nil {
		t.Fatalf("legal guarded drop flagged: %v", err)
	}
}

// TestAuditorCommitOrder pins the region-order rules of Fig. 7 over
// synthetic streams: each case passes clean or is caught by the named rule.
// The crash cases carry the recovery that re-bases the watermarks, after
// which regions above the drain watermark commit again (an elided boundary
// left no durable marker) and drained regions never do.
func TestAuditorCommitOrder(t *testing.T) {
	commit := func(core int32, r uint64) Event { return Event{Kind: EvCommit, Core: core, Region: r} }
	drain := func(core int32, r uint64) Event { return Event{Kind: EvDrain, Core: core, Region: r} }
	crash := func(evs ...Event) []Event {
		return append([]Event{{Kind: EvCrash, Cycle: 40}, {Kind: EvRecoveryDone, Count: testCores}}, evs...)
	}
	cat := func(parts ...[]Event) []Event {
		var out []Event
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		rule   string // "" for a legal stream
		events []Event
	}{
		{"skipped region", "commit-order", []Event{commit(0, 1), commit(0, 3)}},
		{"backward commit", "commit-order", []Event{commit(0, 1), commit(0, 2), commit(0, 1)}},
		{"drain before commit", "drain-before-commit", []Event{drain(0, 1)}},
		{"drains out of order", "drain-order",
			[]Event{commit(0, 1), commit(0, 2), drain(0, 2), drain(0, 1)}},
		{"two cores in order", "",
			[]Event{commit(0, 1), commit(0, 2), drain(0, 1), drain(0, 2), commit(1, 1)}},
		{"undrained regions recommit after recovery", "", cat(
			[]Event{commit(0, 1), drain(0, 1), commit(0, 2), commit(0, 3)}, // 2 elided: no drain
			crash(commit(0, 2), commit(0, 3), drain(0, 3)))},
		{"drained region recommits after recovery", "commit-order", cat(
			[]Event{commit(0, 1), drain(0, 1)},
			crash(commit(0, 1)))},
		{"never-drained core restarts at region 1", "", cat(
			[]Event{commit(0, 1), commit(0, 2)},
			crash(commit(0, 1)))},
	} {
		_, aud := feed(t, tc.events)
		vs := aud.Violations()
		switch {
		case tc.rule == "" && len(vs) != 0:
			t.Errorf("%s: legal stream flagged: %v", tc.name, aud.Err())
		case tc.rule != "" && (len(vs) == 0 || vs[0].Rule != tc.rule):
			t.Errorf("%s: want %s violation, got %v", tc.name, tc.rule, vs)
		}
	}
}

func TestAuditorCrashRecoveryLegal(t *testing.T) {
	// A committed-but-undrained region is replayed; a second, uncommitted
	// store is undone. Execution resumes and the next region commits.
	const a2 = testAddr + 64
	events := []Event{
		{Kind: EvStore, Core: 0, Cycle: 10, Addr: testAddr, Seq: 1, Region: 1, Val: 7, Val2: 3},
		{Kind: EvCommit, Core: 0, Cycle: 12, Region: 1},
		// Open-region store whose effect a dirty writeback persisted early.
		{Kind: EvStore, Core: 0, Cycle: 14, Addr: a2, Seq: 2, Region: 2, Val: 8, Val2: 4},
		{Kind: EvWriteback, Core: 0, Cycle: 30, Addr: a2 &^ 63, Seq: 2},
		{Kind: EvWritebackWord, Core: 0, Cycle: 30, Addr: a2, Seq: 2, Val: 8, Flags: FlagApplied},
		{Kind: EvCrash, Cycle: 40},
		{Kind: EvRecoveryRedoWrite, Core: 0, Addr: testAddr, Seq: 1, Region: 1, Val: 7, Flags: FlagApplied},
		{Kind: EvRecoveryRedo, Core: 0, Region: 1},
		{Kind: EvRecoveryUndo, Core: 0, Addr: a2, Seq: 2, Val: 4, Flags: FlagApplied},
		{Kind: EvRecoveryDone, Count: 1},
		// Resumed execution re-runs the interrupted region.
		{Kind: EvStore, Core: 0, Cycle: 4, Addr: a2, Seq: 3, Region: 2, Val: 8, Val2: 4},
		{Kind: EvCommit, Core: 0, Cycle: 6, Region: 2},
	}
	_, aud := feed(t, events)
	if err := aud.Err(); err != nil {
		t.Fatalf("legal crash/recovery stream flagged: %v", err)
	}
}

func TestAuditorUndoGuardMismatch(t *testing.T) {
	events := []Event{
		{Kind: EvStore, Core: 0, Cycle: 10, Addr: testAddr, Seq: 5, Region: 1, Val: 7, Val2: 3},
		{Kind: EvCrash, Cycle: 40},
		// NVM never held any version >= FirstSeq, yet the undo claims it
		// rewrote NVM.
		{Kind: EvRecoveryUndo, Core: 0, Addr: testAddr, Seq: 5, Val: 3, Flags: FlagApplied},
	}
	_, aud := feed(t, events)
	vs := aud.Violations()
	if len(vs) == 0 || vs[0].Rule != "undo-guard-mismatch" {
		t.Fatalf("want undo-guard-mismatch, got %v", vs)
	}
}

func TestAuditorShadowDivergence(t *testing.T) {
	events := []Event{
		{Kind: EvWritebackWord, Core: 0, Cycle: 10, Addr: testAddr, Seq: 4, Val: 9, Flags: FlagApplied},
		// The NVM word claims a value the shadow never saw written.
		{Kind: EvNVMRead, Core: 0, Cycle: 50, Addr: testAddr, Seq: 4, Val: 10, Val2: 10},
	}
	_, aud := feed(t, events)
	vs := aud.Violations()
	if len(vs) == 0 || vs[0].Rule != "nvm-shadow-divergence" {
		t.Fatalf("want nvm-shadow-divergence, got %v", vs)
	}
}

func TestRecorderRingAndDigest(t *testing.T) {
	r := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		r.Tap(Event{Kind: EvStore, Seq: uint64(i)})
	}
	if r.Total() != 10 || r.Dropped() != 6 {
		t.Fatalf("total %d dropped %d, want 10/6", r.Total(), r.Dropped())
	}
	ev := r.Events()
	if len(ev) != 4 {
		t.Fatalf("kept %d events, want 4", len(ev))
	}
	for i, e := range ev {
		if e.Seq != uint64(6+i) {
			t.Fatalf("event %d has seq %d, want %d (oldest-first order)", i, e.Seq, 6+i)
		}
	}
	// The digest covers all ten events: replaying only the kept four
	// produces a different digest.
	r2 := NewFlightRecorder(4)
	for _, e := range ev {
		r2.Tap(e)
	}
	if r.Digest() == r2.Digest() {
		t.Fatal("digest ignored evicted events")
	}
	// Identical full streams produce identical digests.
	r3 := NewFlightRecorder(2)
	for i := 0; i < 10; i++ {
		r3.Tap(Event{Kind: EvStore, Seq: uint64(i)})
	}
	if r.Digest() != r3.Digest() {
		t.Fatal("digest depends on ring capacity")
	}
}

// TestFlightRecorderTapZeroAlloc pins the recorder's steady state: once the
// ring is full, tapping an event allocates nothing (the wire encoding fits
// its scratch buffer).
func TestFlightRecorderTapZeroAlloc(t *testing.T) {
	r := NewFlightRecorder(4)
	e := Event{Kind: EvDrainWrite, Flags: FlagBoundary, Core: 3, Cycle: 1 << 40, Addr: 1 << 33,
		Seq: 7, Region: 9, Val: ^uint64(0), Val2: 1 << 62, Count: 1 << 31}
	for i := 0; i < 4; i++ {
		r.Tap(e)
	}
	if n := testing.AllocsPerRun(100, func() { r.Tap(e) }); n != 0 {
		t.Errorf("Tap allocates %.1f times per event, want 0", n)
	}
}

// tapSeqs feeds r n store events whose sequences count from 0.
func tapSeqs(r *FlightRecorder, n int) {
	for i := 0; i < n; i++ {
		r.Tap(Event{Kind: EvStore, Seq: uint64(i)})
	}
}

// checkNewest asserts that r, fed tapSeqs(r, n) with capacity capacity,
// retains exactly the newest min(n, capacity) events, oldest first.
func checkNewest(t *testing.T, r *FlightRecorder, n, capacity int) {
	t.Helper()
	ev := r.Events()
	kept := min(n, capacity)
	if len(ev) != kept || r.Total() != uint64(n) || r.Dropped() != uint64(n-kept) {
		t.Fatalf("%d events into cap %d: kept %d, total %d, dropped %d", n, capacity, len(ev), r.Total(), r.Dropped())
	}
	for i, e := range ev {
		if want := uint64(n - kept + i); e.Seq != want {
			t.Fatalf("%d events into cap %d: event %d has seq %d, want %d", n, capacity, i, e.Seq, want)
		}
	}
}

// TestFlightRecorderGrowsWithRun pins the recorder's chunked ring: a
// DefaultRecorderCap recorder allocates with its run, not its cap — 1,000
// events cost under 1 MB, where a ring reserved at the cap costs 4 MB — and
// one fed 100,000 events still returns exactly the newest 65,536, oldest
// first.
func TestFlightRecorderGrowsWithRun(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewFlightRecorder(DefaultRecorderCap)
	tapSeqs(r, 1000)
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b >= 1<<20 {
		t.Errorf("a recorder fed 1000 events allocated %d bytes, want < 1 MB", b)
	}
	checkNewest(t, r, 1000, DefaultRecorderCap)

	r = NewFlightRecorder(DefaultRecorderCap)
	tapSeqs(r, 100_000)
	checkNewest(t, r, 100_000, DefaultRecorderCap)
}

// TestFlightRecorderShortLastChunk: a cap that is not a multiple of the
// chunk size ends the ring in a short chunk; filling, wrapping through it
// and stopping anywhere keeps the newest events in order.
func TestFlightRecorderShortLastChunk(t *testing.T) {
	const capacity = 2*recorderChunk + 100
	for _, n := range []int{0, 50, recorderChunk, recorderChunk + 1, capacity, capacity + 1, 3*capacity + 7} {
		r := NewFlightRecorder(capacity)
		tapSeqs(r, n)
		checkNewest(t, r, n, capacity)
	}
}

// BenchmarkFlightRecorderTap measures the recorder per event (ns/op, B/op
// and allocs/op are per event) over runs of 20,000 events, each into a fresh
// DefaultRecorderCap recorder: the ring's chunks are paid for by the events
// that fill them.
func BenchmarkFlightRecorderTap(b *testing.B) {
	const run = 20_000
	var r *FlightRecorder
	e := Event{Kind: EvDrainWrite, Core: 1, Cycle: 1 << 20, Addr: testAddr, Region: 3, Val: 7, Flags: FlagApplied}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%run == 0 {
			r = NewFlightRecorder(DefaultRecorderCap)
		}
		e.Seq = uint64(i)
		r.Tap(e)
	}
}

func TestRecorderChainFor(t *testing.T) {
	rec, _ := feed(t, legalStoreLife())
	chain := rec.ChainFor(testAddr)
	// store, data launch, data arrival, drain (range covers the line),
	// drain write = 5 events on the line.
	if len(chain) != 5 {
		t.Fatalf("chain has %d events, want 5: %v", len(chain), chain)
	}
	if got := rec.ChainFor(testAddr + 4096); len(got) != 0 {
		t.Fatalf("unrelated line has %d chained events", len(got))
	}
	// Region chain: store, commit, marker launch, marker arrival, drain,
	// drain write (data launches/arrivals carry no region field).
	reg := rec.ChainForRegion(0, 1)
	if len(reg) != 6 {
		t.Fatalf("region chain has %d events, want 6: %v", len(reg), reg)
	}
}

func TestRunRecordRoundTrip(t *testing.T) {
	rec, aud := feed(t, legalStoreLife())
	r := NewRunRecord(rec, aud)
	r.Name = "unit"
	r.Fingerprint = "deadbeef"
	path := filepath.Join(t.TempDir(), "run.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRunRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Digest != r.Digest || back.Name != "unit" || back.EventsTotal != r.EventsTotal {
		t.Fatalf("round trip mangled header: %+v", back)
	}
	dec := back.DecodedEvents()
	if len(dec) != len(legalStoreLife()) {
		t.Fatalf("decoded %d events, want %d", len(dec), len(legalStoreLife()))
	}
	for i, e := range dec {
		if e != legalStoreLife()[i] {
			t.Fatalf("event %d mangled: got %+v want %+v", i, e, legalStoreLife()[i])
		}
	}
	if back.Audit == nil || !back.Audit.Enabled || back.Audit.Violations != 0 {
		t.Fatalf("audit summary mangled: %+v", back.Audit)
	}
}

func TestKindAndFlagNames(t *testing.T) {
	for k := Kind(0); k < NumKinds; k++ {
		back, ok := KindFromString(k.String())
		if !ok || back != k {
			t.Fatalf("kind %d does not round-trip through %q", k, k.String())
		}
	}
	f := FlagMerged | FlagValid | FlagApplied
	if back := FlagsFromString(f.String()); back != f {
		t.Fatalf("flags %q round-tripped to %q", f, back)
	}
	if FlagsFromString("-") != 0 {
		t.Fatal("empty flags did not round-trip")
	}
}

// coreStream is a crash-and-recover stream whose per-core events all come
// from core c: the legal store lifecycle, a crash, a replayed region and an
// undo, then recovery's end.
func coreStream(c int32) []Event {
	evs := legalStoreLife()
	evs = append(evs,
		Event{Kind: EvStore, Cycle: 80, Addr: testAddr, Seq: 2, Region: 2, Val: 8, Val2: 7},
		Event{Kind: EvCrash, Cycle: 90},
		Event{Kind: EvRecoveryUndo, Addr: testAddr, Seq: 2, Val: 7},
		Event{Kind: EvRecoveryDone, Count: 1},
	)
	for i := range evs {
		if !machineWide(evs[i].Kind) {
			evs[i].Core = c
		}
	}
	return evs
}

// TestAuditorCoreOutOfRange: an event naming a core outside [0, Cores) is a
// core-out-of-range violation and is otherwise ignored — no panic, no shadow
// state grown for it — while the machine-wide kinds carry no core at all.
func TestAuditorCoreOutOfRange(t *testing.T) {
	for _, c := range []int32{-1, testCores, 1 << 30} {
		evs := coreStream(c)
		_, aud := feed(t, evs)
		perCore := 0
		for _, e := range evs {
			if !machineWide(e.Kind) {
				perCore++
			}
		}
		if got := aud.ViolationCount(); got != uint64(perCore) {
			t.Errorf("core %d: %d violations, want one per per-core event (%d): %v", c, got, perCore, aud.Violations())
		}
		for _, v := range aud.Violations() {
			if v.Rule != "core-out-of-range" {
				t.Errorf("core %d: rule %s, want core-out-of-range", c, v.Rule)
			}
		}
		if len(aud.cores) != testCores || aud.EventsAudited() != uint64(len(evs)) {
			t.Errorf("core %d: %d core shadows, %d of %d events audited", c, len(aud.cores), aud.EventsAudited(), len(evs))
		}
	}
	if _, aud := feed(t, coreStream(testCores-1)); aud.Err() != nil {
		t.Errorf("the last in-range core was flagged: %v", aud.Err())
	}
}
