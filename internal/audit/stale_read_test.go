package audit

import "testing"

// Tests for stale-nvm-read: a load served from NVM may return data older
// than the architectural value only while a pending (undrained) store newer
// than the NVM version explains the gap.

// staleReadPrefix persists core 0's store (seq 1, val 7) to testAddr, then
// leaves core 1's newer store to the same word (seq 2, val 9, region 1)
// pending: committed, not yet drained.
func staleReadPrefix() []Event {
	return []Event{
		{Kind: EvStore, Core: 0, Cycle: 10, Addr: testAddr, Seq: 1, Region: 1, Val: 7},
		{Kind: EvCommit, Core: 0, Cycle: 12, Region: 1},
		{Kind: EvDrain, Core: 0, Cycle: 76, Region: 1, Val: testAddr, Val2: testAddr, Count: 1},
		{Kind: EvDrainWrite, Core: 0, Cycle: 76, Addr: testAddr, Seq: 1, Region: 1, Val: 7, Flags: FlagApplied},
		{Kind: EvStore, Core: 1, Cycle: 80, Addr: testAddr, Seq: 2, Region: 1, Val: 9},
		{Kind: EvCommit, Core: 1, Cycle: 82, Region: 1},
	}
}

// staleRead is an NVM read of testAddr returning the persisted version
// (seq 1, val 7) while the architectural value is core 1's 9.
var staleRead = Event{Kind: EvNVMRead, Core: 0, Cycle: 100, Addr: testAddr, Seq: 1, Val: 7, Val2: 9}

// TestAuditorStaleReadExplained: core 1's pending newer store explains the
// gap between the NVM word and the architectural value.
func TestAuditorStaleReadExplained(t *testing.T) {
	_, aud := feed(t, append(staleReadPrefix(), staleRead))
	if err := aud.Err(); err != nil {
		t.Fatalf("read explained by a pending store flagged: %v", err)
	}
}

// TestMutationStaleReadLostRedo: region 1's drain on core 1 loses its redo
// write. Once the next region's drain retires the store, nothing pending
// explains the gap any more and the read is flagged.
func TestMutationStaleReadLostRedo(t *testing.T) {
	events := append(staleReadPrefix(),
		// MUTATION: region 1 drains with no EvDrainWrite for seq 2.
		Event{Kind: EvDrain, Core: 1, Cycle: 90, Region: 1},
		Event{Kind: EvCommit, Core: 1, Cycle: 92, Region: 2},
		Event{Kind: EvDrain, Core: 1, Cycle: 95, Region: 2},
		staleRead,
	)
	_, aud := feed(t, events)
	v := requireViolation(t, aud, "stale-nvm-read")
	if v.Event != staleRead {
		t.Fatalf("violation anchored to %s, want the stale read", v.Event)
	}
}

// TestAuditorStaleReadDuplicateSeq: two stores share one sequence number
// but go to different words X and Y (a store-seq-monotone violation). When
// their region retires, no trace of the X store may survive to explain a
// later stale read of X.
func TestAuditorStaleReadDuplicateSeq(t *testing.T) {
	const x, y = testAddr, testAddr + 8
	events := []Event{
		{Kind: EvStore, Core: 0, Cycle: 10, Addr: x, Seq: 5, Region: 1, Val: 7},
		{Kind: EvStore, Core: 0, Cycle: 11, Addr: y, Seq: 5, Region: 1, Val: 8},
		{Kind: EvCommit, Core: 0, Cycle: 12, Region: 1},
		{Kind: EvDrain, Core: 0, Cycle: 76, Region: 1},
		{Kind: EvCommit, Core: 0, Cycle: 80, Region: 2},
		{Kind: EvDrain, Core: 0, Cycle: 90, Region: 2},
		// X was never persisted: NVM holds (seq 0, val 0), the
		// architectural value is 7, and no store is pending.
		{Kind: EvNVMRead, Core: 0, Cycle: 100, Addr: x, Seq: 0, Val: 0, Val2: 7},
	}
	_, aud := feed(t, events)
	var rules []string
	for _, v := range aud.Violations() {
		rules = append(rules, v.Rule)
	}
	if len(rules) != 2 || rules[0] != "store-seq-monotone" || rules[1] != "stale-nvm-read" {
		t.Fatalf("violations %v, want [store-seq-monotone stale-nvm-read]", rules)
	}
}

// storeLife is one store's legal life at steady state: store, launch,
// arrival, commit, drain, drain write. Store k is region k of core 0 and
// retires when region k+1 drains.
func storeLife(k uint64) [6]Event {
	c := k * 100
	return [6]Event{
		{Kind: EvStore, Core: 0, Cycle: c, Addr: testAddr, Seq: k, Region: k, Val: k},
		{Kind: EvLaunch, Core: 0, Cycle: c, Addr: testAddr, Seq: k, Val: c},
		{Kind: EvBackArrive, Core: 0, Cycle: c + testLat, Addr: testAddr, Seq: k, Val: c + testLat, Flags: FlagValid},
		{Kind: EvCommit, Core: 0, Cycle: c + 50, Region: k},
		{Kind: EvDrain, Core: 0, Cycle: c + 60, Region: k, Val: testAddr, Val2: testAddr, Count: 1},
		{Kind: EvDrainWrite, Core: 0, Cycle: c + 60, Addr: testAddr, Seq: k, Region: k, Val: k, Flags: FlagApplied},
	}
}

// TestAuditorTapZeroAlloc pins the auditor's steady state: once warmed, a
// store's whole legal life allocates nothing (pending stores are kept by
// value and the per-core issue queue reuses its backing array).
func TestAuditorTapZeroAlloc(t *testing.T) {
	a := NewAuditor(testOpts())
	k := uint64(0)
	life := func() {
		k++
		for _, e := range storeLife(k) {
			a.Tap(e)
		}
	}
	for i := 0; i < 64; i++ {
		life()
	}
	// One measured run of the whole loop: AllocsPerRun truncates its
	// average to a whole number, so a rare allocation must not be averaged
	// away.
	n := testing.AllocsPerRun(1, func() {
		for range 1000 {
			life()
		}
	})
	if n != 0 {
		t.Errorf("1,000 store lives allocate %.0f times, want 0", n)
	}
	if err := a.Err(); err != nil {
		t.Fatalf("steady-state stream flagged: %v", err)
	}
}

// BenchmarkAuditorTap measures the auditor per event (ns/op and allocs/op
// are per event) over a steady stream of store lives.
func BenchmarkAuditorTap(b *testing.B) {
	a := NewAuditor(testOpts())
	var life [6]Event
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j := i % len(life)
		if j == 0 {
			life = storeLife(uint64(i/len(life)) + 1)
		}
		a.Tap(life[j])
	}
	if err := a.Err(); err != nil {
		b.Fatalf("steady-state stream flagged: %v", err)
	}
}
