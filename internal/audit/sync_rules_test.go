package audit

import "testing"

// Synthetic-stream tests for the cross-core ordering rules backing the
// multi-core fault campaign: a synchronizing store commits atomically with
// its own region (sync-unordered-commit), same-word atomics persist in
// execution order (sync-persist-order), concurrent per-core drains respect
// the per-line version chain (line-version-chain), and recovery's rollback
// never destroys another core's committed data (undo-clobbers-committed).
// Each stream mutation has an end-to-end counterpart among the committed
// protocol mutants (testdata/mutants, run by make mutants), which the fault
// package's clean-tree contention campaign must catch.

// syncLife is one core's legal synchronizing store: issue, sync, immediate
// commit (the sync seals its own region).
func syncLife(core int32, seq, region uint64, cycle uint64) []Event {
	return []Event{
		{Kind: EvStore, Core: core, Cycle: cycle, Addr: testAddr, Seq: seq, Region: region, Val: seq * 10, Val2: 0},
		{Kind: EvSync, Core: core, Cycle: cycle, Addr: testAddr, Seq: seq, Region: region, Val: seq * 10, Val2: 0},
		{Kind: EvCommit, Core: core, Cycle: cycle + 1, Region: region},
	}
}

// TestAuditorSyncLegal: two cores' atomics to one word, each sealing its own
// region and draining in execution order, audit clean.
func TestAuditorSyncLegal(t *testing.T) {
	var events []Event
	events = append(events, syncLife(0, 1, 1, 10)...)
	events = append(events, syncLife(1, 2, 1, 20)...)
	events = append(events,
		Event{Kind: EvDrain, Core: 0, Cycle: 80, Region: 1, Val: testAddr, Val2: testAddr, Count: 1},
		Event{Kind: EvDrainWrite, Core: 0, Cycle: 80, Addr: testAddr, Seq: 1, Region: 1, Val: 10, Flags: FlagApplied},
		Event{Kind: EvDrain, Core: 1, Cycle: 90, Region: 1, Val: testAddr, Val2: testAddr, Count: 1},
		Event{Kind: EvDrainWrite, Core: 1, Cycle: 90, Addr: testAddr, Seq: 2, Region: 1, Val: 20, Flags: FlagApplied},
	)
	_, aud := feed(t, events)
	if err := aud.Err(); err != nil {
		t.Fatalf("legal sync stream flagged: %v", err)
	}
}

// TestMutationSyncNoCommit: the sync-no-commit mutant's stream — the sync's
// sealing commit is dropped, so the core's next store lands in a region
// whose sync is still rollback-able while other cores can observe it.
func TestMutationSyncNoCommit(t *testing.T) {
	events := []Event{
		{Kind: EvStore, Core: 0, Cycle: 10, Addr: testAddr, Seq: 1, Region: 1, Val: 10, Val2: 0},
		{Kind: EvSync, Core: 0, Cycle: 10, Addr: testAddr, Seq: 1, Region: 1, Val: 10, Val2: 0},
		// MUTATION: no EvCommit for region 1 — execution just continues.
		{Kind: EvStore, Core: 0, Cycle: 20, Addr: testAddr + 8, Seq: 2, Region: 1, Val: 5, Val2: 0},
	}
	_, aud := feed(t, events)
	v := requireViolation(t, aud, "sync-unordered-commit")
	if v.Event.Kind != EvStore {
		t.Fatalf("violation anchored to %s, want %s", v.Event.Kind, EvStore)
	}
}

// TestMutationSyncUnknownStore: an EvSync whose data entry never issued.
func TestMutationSyncUnknownStore(t *testing.T) {
	events := []Event{
		{Kind: EvSync, Core: 0, Cycle: 10, Addr: testAddr, Seq: 1, Region: 1, Val: 10},
	}
	_, aud := feed(t, events)
	wantRule(t, aud, "sync-unknown-store")
}

// TestMutationDrainNoGuard: the drain-no-guard mutant's stream — core 0's slow
// drain bypasses the sequence guard and clobbers core 1's newer committed
// atomic. Both the cross-core version-chain rule and the sync persist-order
// rule must fire (the guard-mismatch rule fires too; these localize it).
func TestMutationDrainNoGuard(t *testing.T) {
	var events []Event
	events = append(events, syncLife(0, 1, 1, 10)...)
	events = append(events, syncLife(1, 2, 1, 20)...)
	events = append(events,
		// Core 1's drain wins the race and persists the newer atomic first.
		Event{Kind: EvDrain, Core: 1, Cycle: 80, Region: 1, Val: testAddr, Val2: testAddr, Count: 1},
		Event{Kind: EvDrainWrite, Core: 1, Cycle: 80, Addr: testAddr, Seq: 2, Region: 1, Val: 20, Flags: FlagApplied},
		// MUTATION: core 0's stale drain applies anyway (guard bypassed).
		Event{Kind: EvDrain, Core: 0, Cycle: 90, Region: 1, Val: testAddr, Val2: testAddr, Count: 1},
		Event{Kind: EvDrainWrite, Core: 0, Cycle: 90, Addr: testAddr, Seq: 1, Region: 1, Val: 10, Flags: FlagApplied},
	)
	_, aud := feed(t, events)
	wantRule(t, aud, "sync-persist-order")
	wantRule(t, aud, "line-version-chain")
	wantRule(t, aud, "seq-guard-mismatch")
}

// TestMutationReplayNoGuard: the replay-no-guard mutant's stream — recovery's
// redo replay bypasses the sequence guard, so replaying core 0's stream
// after core 1's rewinds the word to the older atomic: replay order became
// visible in NVM and recovery no longer commutes.
func TestMutationReplayNoGuard(t *testing.T) {
	var events []Event
	events = append(events, syncLife(0, 1, 1, 10)...)
	events = append(events, syncLife(1, 2, 1, 20)...)
	events = append(events,
		Event{Kind: EvCrash, Cycle: 50},
		// Recovery replays core 1's committed region first...
		Event{Kind: EvRecoveryRedoWrite, Core: 1, Addr: testAddr, Seq: 2, Region: 1, Val: 20, Flags: FlagApplied},
		Event{Kind: EvRecoveryRedo, Core: 1, Region: 1},
		// MUTATION: ...then core 0's stale redo applies over it unguarded.
		Event{Kind: EvRecoveryRedoWrite, Core: 0, Addr: testAddr, Seq: 1, Region: 1, Val: 10, Flags: FlagApplied},
		Event{Kind: EvRecoveryRedo, Core: 0, Region: 1},
	)
	_, aud := feed(t, events)
	wantRule(t, aud, "sync-persist-order")
	wantRule(t, aud, "line-version-chain")
}

// TestMutationUndoClobbersCommitted: with the sync's commit dropped, core
// 0's atomic stays uncommitted at the crash while core 1's later committed
// atomic to the same word already drained. Recovery's rollback of core 0's
// store then destroys core 1's committed NVM version.
func TestMutationUndoClobbersCommitted(t *testing.T) {
	events := []Event{
		{Kind: EvStore, Core: 0, Cycle: 10, Addr: testAddr, Seq: 1, Region: 1, Val: 10, Val2: 3},
		{Kind: EvSync, Core: 0, Cycle: 10, Addr: testAddr, Seq: 1, Region: 1, Val: 10, Val2: 3},
		// MUTATION: core 0's sealing commit is dropped; core 1's later atomic
		// to the word commits and drains normally.
		{Kind: EvStore, Core: 1, Cycle: 20, Addr: testAddr, Seq: 2, Region: 1, Val: 20, Val2: 10},
		{Kind: EvSync, Core: 1, Cycle: 20, Addr: testAddr, Seq: 2, Region: 1, Val: 20, Val2: 10},
		{Kind: EvCommit, Core: 1, Cycle: 21, Region: 1},
		{Kind: EvDrain, Core: 1, Cycle: 60, Region: 1, Val: testAddr, Val2: testAddr, Count: 1},
		{Kind: EvDrainWrite, Core: 1, Cycle: 60, Addr: testAddr, Seq: 2, Region: 1, Val: 20, Flags: FlagApplied},
		{Kind: EvCrash, Cycle: 80},
		// Recovery rolls back core 0's uncommitted atomic — over committed data.
		{Kind: EvRecoveryUndo, Core: 0, Addr: testAddr, Seq: 1, Val: 3, Flags: FlagApplied},
	}
	_, aud := feed(t, events)
	v := requireViolation(t, aud, "undo-clobbers-committed")
	if v.Event.Kind != EvRecoveryUndo {
		t.Fatalf("violation anchored to %s, want %s", v.Event.Kind, EvRecoveryUndo)
	}
}

// TestAuditorCommittedFollowsVersion: the committed mark belongs to the
// persisted version, not to the word. Core 1's committed atomic drains;
// then a writeback persists core 2's newer, uncommitted store over it, so
// the word's version is no longer committed. Recovery's rollback of core
// 0's older uncommitted store may then overwrite the word without
// destroying committed data: undo-clobbers-committed must not fire, and
// with core 2's writeback removed it must.
func TestAuditorCommittedFollowsVersion(t *testing.T) {
	stream := func(writeback bool) []Event {
		events := []Event{
			{Kind: EvStore, Core: 0, Cycle: 10, Addr: testAddr, Seq: 1, Region: 1, Val: 10, Val2: 3},
		}
		events = append(events, syncLife(1, 2, 1, 20)...)
		events = append(events,
			Event{Kind: EvDrain, Core: 1, Cycle: 60, Region: 1, Val: testAddr, Val2: testAddr, Count: 1},
			Event{Kind: EvDrainWrite, Core: 1, Cycle: 60, Addr: testAddr, Seq: 2, Region: 1, Val: 20, Flags: FlagApplied},
		)
		if writeback {
			events = append(events,
				Event{Kind: EvStore, Core: 2, Cycle: 70, Addr: testAddr, Seq: 3, Region: 1, Val: 30, Val2: 20},
				Event{Kind: EvWritebackWord, Core: 2, Cycle: 75, Addr: testAddr, Seq: 3, Val: 30, Flags: FlagApplied},
			)
		}
		return append(events,
			Event{Kind: EvCrash, Cycle: 80},
			Event{Kind: EvRecoveryUndo, Core: 0, Addr: testAddr, Seq: 1, Val: 3, Flags: FlagApplied},
		)
	}
	_, aud := feed(t, stream(true))
	for _, v := range aud.Violations() {
		if v.Rule == "undo-clobbers-committed" {
			t.Fatalf("undo over an uncommitted version flagged: %s", v.Detail)
		}
	}
	_, aud = feed(t, stream(false))
	wantRule(t, aud, "undo-clobbers-committed")
}
