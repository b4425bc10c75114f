package machine

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"capri/internal/mem"
	"capri/internal/proxy"
)

// imageSnapshot is the observable content of a CrashImage, deep-copied so a
// later mutation of either the image or the machine it came from is visible.
type imageSnapshot struct {
	NVM     []mem.WordEntry
	Records []CoreRecord
	Streams [][]proxy.Entry
	Outputs [][]uint64
	Seq     uint64
}

func snapshotImage(img *CrashImage) imageSnapshot {
	s := imageSnapshot{
		NVM: img.NVM.Entries(),
		Seq: img.Seq,
	}
	s.Records = append(s.Records, img.Records...)
	for _, stream := range img.Streams {
		cp := append([]proxy.Entry(nil), stream...)
		for i := range cp {
			if len(cp[i].Ckpts) > 0 {
				cp[i].Ckpts = append([]proxy.RegCkpt(nil), cp[i].Ckpts...)
			}
			if len(cp[i].Emits) > 0 {
				cp[i].Emits = append([]uint64(nil), cp[i].Emits...)
			}
		}
		s.Streams = append(s.Streams, cp)
	}
	for _, out := range img.Outputs {
		s.Outputs = append(s.Outputs, append([]uint64(nil), out...))
	}
	return s
}

// TestCrashImageUnshared pins the harvest contract: a CrashImage shares
// nothing writable with the live machine (its NVM pages are shared
// copy-on-write, everything else is copied), so mutating the machine after
// Crash() — including running it further, which reuses the proxy buffers'
// backing arrays that harvested Ckpts/Emits slices used to alias, and
// rewriting every NVM word — never changes the image, and the image still
// recovers to the golden outcome afterwards.
func TestCrashImageUnshared(t *testing.T) {
	cfg := testConfig(8)
	p := compileFor(t, sumProgram(3000), 8)

	golden, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := golden.Run(); err != nil {
		t.Fatal(err)
	}

	m, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunUntil(golden.Instret() / 2); err != nil {
		t.Fatal(err)
	}
	img, err := m.Crash()
	if err != nil {
		t.Fatal(err)
	}
	inFlight := 0
	ckpts := 0
	for _, stream := range img.Streams {
		inFlight += len(stream)
		for _, e := range stream {
			ckpts += len(e.Ckpts)
		}
	}
	if inFlight == 0 || ckpts == 0 {
		t.Fatalf("crash point harvested %d entries / %d checkpoints — aliasing not exercised", inFlight, ckpts)
	}
	before := snapshotImage(img)

	// Mutate the live machine every way the simulator can: keep executing
	// (the crash harvest consumed the proxy path, so the run may stall or
	// err — only the image's stability matters here), then scribble directly
	// on the persistent structures the image was harvested from.
	_ = m.Run()
	for _, e := range before.NVM {
		m.nvm.Restore(e.Addr, e.Val^0xdeadbeef, e.Seq+100)
	}
	for _, c := range m.cores {
		c.output = append(c.output, 0xbad)
	}
	for i := range m.records {
		m.records[i].Region += 7
	}
	m.seq += 1000

	if after := snapshotImage(img); !reflect.DeepEqual(before, after) {
		t.Fatal("CrashImage changed when the live machine was mutated after Crash()")
	}

	r, _, err := Recover(img)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := r.Output(0), golden.Output(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered output %v, golden %v", got, want)
	}
}

// TestConcurrentRecoveriesOfOneImage recovers one CrashImage from two
// goroutines at once and runs both machines to completion: recovery only
// reads the image (its NVM pages are shared, and each recovered machine
// copies a page before writing it), so under the race detector the two
// must not race, and both must reach the same NVM and outputs as a
// recovery run alone, leaving the image unchanged.
func TestConcurrentRecoveriesOfOneImage(t *testing.T) {
	p, cfg, at := crashPointTarget(t)
	m, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunUntil(at); err != nil {
		t.Fatal(err)
	}
	img, err := m.Crash()
	if err != nil {
		t.Fatal(err)
	}
	before := snapshotImage(img)
	type result struct {
		nvm     []mem.WordEntry
		outputs [][]uint64
		err     error
	}
	recoverAndRun := func() (r result) {
		rm, _, err := Recover(img)
		if err == nil {
			err = rm.Run()
		}
		if err != nil {
			return result{err: err}
		}
		r.nvm = rm.NVMEntries()
		for c := range p.NumThreads() {
			r.outputs = append(r.outputs, rm.Output(c))
		}
		return r
	}
	var got [2]result
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = recoverAndRun()
		}()
	}
	wg.Wait()
	want := recoverAndRun()
	if want.err != nil {
		t.Fatal(want.err)
	}
	for i, r := range got {
		if r.err != nil {
			t.Fatalf("recovery %d: %v", i, r.err)
		}
		if !reflect.DeepEqual(r.nvm, want.nvm) || !reflect.DeepEqual(r.outputs, want.outputs) {
			t.Errorf("recovery %d reached a different NVM image or output than a recovery alone", i)
		}
	}
	if len(want.outputs[0]) == 0 {
		t.Error("recovered run printed nothing: outputs not exercised")
	}
	if after := snapshotImage(img); !reflect.DeepEqual(before, after) {
		t.Error("recovering the image changed it")
	}
}

// TestDrainRetrySucceedsWithinBudget pins the transient-NVM-write-error path:
// a drain that fails a bounded number of times completes after backoff, the
// run's outcome is unchanged, the retries appear in Stats and the DrainRetries
// histogram, and every retry-stall cycle lands in the CauseDrainRetry ledger
// bucket — with the ledger still summing exactly to the cycle count.
func TestDrainRetrySucceedsWithinBudget(t *testing.T) {
	cfg := testConfig(8)
	p := compileFor(t, sumProgram(500), 8)

	clean, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := clean.Run(); err != nil {
		t.Fatal(err)
	}

	m, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mt := m.EnableMetrics()
	m.ArmFaults(FaultConfig{
		DrainError: func(core int, region uint64, attempt int) bool { return attempt < 2 },
	})
	if err := m.Run(); err != nil {
		t.Fatalf("bounded transient errors must not fail the run: %v", err)
	}
	if got, want := m.Output(0), clean.Output(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("output %v under retries, want %v", got, want)
	}

	s := m.Stats()
	if s.DrainRetries == 0 {
		t.Fatal("no drain retries recorded")
	}
	if s.DrainExhausted != 0 {
		t.Fatalf("%d drains exhausted under a 2-failure hook (budget %d)", s.DrainExhausted, DefaultRetryMax)
	}
	if mt.DrainRetries.Count == 0 || mt.DrainRetries.Max < 2 {
		t.Fatalf("DrainRetries histogram = %+v, want samples with max >= 2", mt.DrainRetries)
	}
	checkLedger(t, m)
	var sum uint64
	for _, n := range s.CycleBy {
		sum += n
	}
	if sum != s.Cycles {
		t.Fatalf("ledger sums to %d, Cycles = %d", sum, s.Cycles)
	}
	if s.CycleBy[CauseDrainRetry] == 0 {
		t.Fatal("no cycles attributed to drain-retry stalls")
	}
	if m.Cycles() <= clean.Cycles() {
		t.Fatalf("retried run took %d cycles, clean run %d — backoff cost vanished", m.Cycles(), clean.Cycles())
	}
}

// TestDrainRetryExhaustionDegrades pins the degradation contract: a drain
// whose write errors persist past the retry budget makes Run return a
// structured *DrainExhaustedError (a hard stall, not a panic and not silent
// data loss), the exhaustion is counted, the ledger still balances — and the
// machine can then be crashed and recovered, completing the program, because
// the stuck region's entries are still in the battery-backed buffers.
func TestDrainRetryExhaustionDegrades(t *testing.T) {
	cfg := testConfig(8)
	p := compileFor(t, sumProgram(500), 8)

	golden, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := golden.Run(); err != nil {
		t.Fatal(err)
	}

	m, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.ArmFaults(FaultConfig{
		DrainError: func(core int, region uint64, attempt int) bool { return true },
	})
	runErr := m.Run()
	if runErr == nil {
		t.Fatal("always-failing NVM writes completed the run")
	}
	var dex *DrainExhaustedError
	if !errors.As(runErr, &dex) {
		t.Fatalf("run failed with %T (%v), want *DrainExhaustedError", runErr, runErr)
	}
	if dex.Attempts != DefaultRetryMax+1 {
		t.Fatalf("exhausted after %d attempts, want retry budget %d + 1", dex.Attempts, DefaultRetryMax)
	}
	s := m.Stats()
	if s.DrainExhausted == 0 {
		t.Fatal("exhaustion not counted in Stats")
	}
	if s.DrainRetries < uint64(DefaultRetryMax) {
		t.Fatalf("only %d retries recorded before exhaustion (budget %d)", s.DrainRetries, DefaultRetryMax)
	}
	checkLedger(t, m)

	img, err := m.Crash()
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := Recover(img)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := r.Output(0), golden.Output(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-exhaustion recovery output %v, golden %v", got, want)
	}
}

// TestTearWritebackOwnershipGuard pins tearWriteback's word-level semantics
// against a hand-built journal: a torn word reverts to its pre-writeback NVM
// image only while NVM still holds exactly the journaled write; a word a
// later write owns is untouchable (same-address WPQ ordering means the
// journaled write fully left the queue before the later one entered).
func TestTearWritebackOwnershipGuard(t *testing.T) {
	cfg := testConfig(8)
	m, err := New(compileFor(t, sumProgram(10), 8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.ArmFaults(FaultConfig{})

	line := uint64(HeapBase)
	m.nvm.Restore(line, 2, 5)    // NVM holds the journaled write: tearable
	m.nvm.Restore(line+8, 70, 9) // a later write owns this word: not tearable
	m.flt.noteLineWrite(line, 0, 6, []tornWord{
		{addr: line, old: mem.Word{Val: 1, Seq: 1}, new: mem.Word{Val: 2, Seq: 5}},
		{addr: line + 8, old: mem.Word{Val: 3, Seq: 2}, new: mem.Word{Val: 4, Seq: 6}},
	})

	img, err := m.CrashTorn([]Tear{{Kind: TearWriteback, Pick: 0, Keep: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if got := img.NVM.Peek(line); got != (mem.Word{Val: 1, Seq: 1}) {
		t.Errorf("tearable word = %+v, want reverted {1 1}", got)
	}
	if got := img.NVM.Peek(line + 8); got != (mem.Word{Val: 70, Seq: 9}) {
		t.Errorf("owned word = %+v, want untouched {70 9}", got)
	}
}

// TestTearWritebackKeepPrefix: Keep persists the first Keep applied words of
// the journaled line (writes drain in order — a torn line loses a suffix).
func TestTearWritebackKeepPrefix(t *testing.T) {
	cfg := testConfig(8)
	m, err := New(compileFor(t, sumProgram(10), 8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.ArmFaults(FaultConfig{})

	line := uint64(HeapBase + 128)
	m.nvm.Restore(line, 10, 5)
	m.nvm.Restore(line+8, 20, 6)
	m.flt.noteLineWrite(line, 0, 6, []tornWord{
		{addr: line, old: mem.Word{Val: 0, Seq: 0}, new: mem.Word{Val: 10, Seq: 5}},
		{addr: line + 8, old: mem.Word{Val: 0, Seq: 0}, new: mem.Word{Val: 20, Seq: 6}},
	})

	img, err := m.CrashTorn([]Tear{{Kind: TearWriteback, Pick: 0, Keep: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := img.NVM.Peek(line); got != (mem.Word{Val: 10, Seq: 5}) {
		t.Errorf("kept word = %+v, want persisted {10 5}", got)
	}
	if got := img.NVM.Peek(line + 8); got != (mem.Word{Val: 0, Seq: 0}) {
		t.Errorf("torn word = %+v, want reverted {0 0}", got)
	}
}

// TestTearConfirmDurable pins faultState.confirm: once a later write to the
// word enters the queue (or an elided drain write verifies it), the journaled
// write is durable and a tear must leave it alone — even though NVM still
// holds exactly the journaled value.
func TestTearConfirmDurable(t *testing.T) {
	cfg := testConfig(8)
	m, err := New(compileFor(t, sumProgram(10), 8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.ArmFaults(FaultConfig{})

	line := uint64(HeapBase + 256)
	m.nvm.Restore(line, 42, 5)
	m.flt.noteLineWrite(line, 0, 5, []tornWord{
		{addr: line, old: mem.Word{Val: 7, Seq: 1}, new: mem.Word{Val: 42, Seq: 5}},
	})
	m.flt.confirm(line)

	img, err := m.CrashTorn([]Tear{{Kind: TearWriteback, Pick: 0, Keep: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if got := img.NVM.Peek(line); got != (mem.Word{Val: 42, Seq: 5}) {
		t.Errorf("confirmed word = %+v, want durable {42 5}", got)
	}
}

// TestCrashTornVacuousTears: tears referencing writes that are not in flight
// (journal index past the end, no booked drain) are exact no-ops — the torn
// image is identical to a plain crash image at the same point.
func TestCrashTornVacuousTears(t *testing.T) {
	cfg := testConfig(8)
	p := compileFor(t, sumProgram(800), 8)

	run := func(tears []Tear) imageSnapshot {
		m, err := New(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.ArmFaults(FaultConfig{})
		if err := m.RunUntil(1000); err != nil {
			t.Fatal(err)
		}
		img, err := m.CrashTorn(tears)
		if err != nil {
			t.Fatal(err)
		}
		return snapshotImage(img)
	}

	plain := run(nil)
	torn := run([]Tear{
		{Kind: TearWriteback, Pick: DefaultJournalDepth + 5, Keep: 0},
		{Kind: TearDrain, Pick: 0, Keep: 0},
	})
	if !reflect.DeepEqual(plain, torn) {
		t.Fatal("vacuous tears changed the crash image")
	}
}

// TestCrashTornBaselineRejected: the baseline machine has no persistent image
// to tear.
func TestCrashTornBaselineRejected(t *testing.T) {
	cfg := testConfig(8)
	cfg.Capri = false
	m, err := New(sumProgram(10), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.CrashTorn(nil); err == nil {
		t.Fatal("baseline CrashTorn succeeded")
	}
}

// TestTearDrainIdempotentReplay: pre-applying a prefix of a booked phase-2
// drain at the crash (the WPQ had begun the drain when power failed) changes
// the crash image but never the recovered outcome — recovery re-replays the
// region's entries from the battery-backed buffers and the sequence guard
// makes the overlap idempotent.
func TestTearDrainIdempotentReplay(t *testing.T) {
	cfg := testConfig(4)
	p := compileFor(t, stridedStoreProgram(4000), 4)

	golden, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := golden.Run(); err != nil {
		t.Fatal(err)
	}

	crashAt := func(at uint64, tears []Tear) *CrashImage {
		m, err := New(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.ArmFaults(FaultConfig{})
		if err := m.RunUntil(at); err != nil {
			t.Fatal(err)
		}
		img, err := m.CrashTorn(tears)
		if err != nil {
			t.Fatal(err)
		}
		return img
	}

	// Find a crash point where a drain is actually in flight: the torn image
	// must differ from the plain one, or the tear was vacuous everywhere.
	tornOnce := false
	for _, frac := range []uint64{8, 4, 3, 2} {
		at := golden.Instret() / frac
		tears := []Tear{{Kind: TearDrain, Pick: 0, Keep: 4}}
		plain := crashAt(at, nil)
		torn := crashAt(at, tears)
		if !reflect.DeepEqual(plain.NVM.Entries(), torn.NVM.Entries()) {
			tornOnce = true
		}
		r, _, err := Recover(torn)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Run(); err != nil {
			t.Fatal(err)
		}
		if got, want := r.MemSnapshot(), golden.MemSnapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("crash@%d: torn-drain recovery diverged from golden memory", at)
		}
	}
	if !tornOnce {
		t.Fatal("no crash point had a drain in flight — the tear was never exercised")
	}
}
