package audit

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"capri/internal/slab"
)

// FuzzAuditorDifferential runs every stream through the auditor and through
// mapAuditor, a model of the map-keyed shadow the auditor was built on
// before its shadow became per-core queues and a paged word table (pending
// stores in a map keyed by global sequence, NVM versions and sync-persist
// watermarks in maps keyed by address). The first violation (rule and
// index) must agree on every input, and the whole violation list whenever
// no store-seq-monotone fires: only a duplicate or non-rising store
// sequence can make the per-core queues and the seq-keyed map disagree.
// The seeds are FuzzAuditorTap's corpus.
func FuzzAuditorDifferential(f *testing.F) {
	f.Add(encodeWire(testOpts(), legalStoreLife()))
	f.Add(encodeWire(testOpts(), crossCoreSyncPersist()))
	f.Add(encodeWire(testOpts(), multiPageDrain()))
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzAuditorTap", "*"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no FuzzAuditorTap corpus (%v)", err)
	}
	for _, p := range paths {
		f.Add(readCorpusBytes(f, p))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		opt, evs := decodeWire(b)
		got, want := NewAuditor(opt), newMapAuditor(opt)
		for _, e := range evs {
			got.Tap(e)
			want.Tap(e)
		}
		gv, wv := got.Violations(), want.violations
		if (len(gv) == 0) != (len(wv) == 0) {
			t.Fatalf("auditor found %d violations, map model %d", len(gv), len(wv))
		}
		if len(gv) > 0 && (gv[0].Rule != wv[0].Rule || gv[0].Index != wv[0].Index) {
			t.Fatalf("first violation %s@%d, map model %s@%d", gv[0].Rule, gv[0].Index, wv[0].Rule, wv[0].Index)
		}
		for _, v := range wv {
			if v.Rule == "store-seq-monotone" {
				return
			}
		}
		if got.ViolationCount() != want.total || len(gv) != len(wv) {
			t.Fatalf("auditor counted %d violations (%d kept), map model %d (%d kept)",
				got.ViolationCount(), len(gv), want.total, len(wv))
		}
		for i := range gv {
			if gv[i].Rule != wv[i].Rule || gv[i].Index != wv[i].Index || gv[i].Detail != wv[i].Detail {
				t.Fatalf("violation %d: auditor %s@%d (%s), map model %s@%d (%s)",
					i, gv[i].Rule, gv[i].Index, gv[i].Detail, wv[i].Rule, wv[i].Index, wv[i].Detail)
			}
		}
	})
}

// crossCoreSyncPersist drains core 2's sync store (seq 2) through core 1,
// then core 0's older sync store (seq 1) to the same word.
// sync-persist-order looks the store up by seq on any core, so the second
// persist breaks the word's sync order even though the first one matched
// no store of its own core.
func crossCoreSyncPersist() []Event {
	return []Event{
		{Kind: EvStore, Core: 0, Cycle: 10, Addr: testAddr, Seq: 1, Region: 1, Val: 7},
		{Kind: EvSync, Core: 0, Cycle: 10, Addr: testAddr, Seq: 1, Region: 1, Val: 7},
		{Kind: EvCommit, Core: 0, Cycle: 11, Region: 1},
		{Kind: EvStore, Core: 2, Cycle: 12, Addr: testAddr, Seq: 2, Region: 1, Val: 8},
		{Kind: EvSync, Core: 2, Cycle: 12, Addr: testAddr, Seq: 2, Region: 1, Val: 8},
		{Kind: EvCommit, Core: 2, Cycle: 13, Region: 1},
		{Kind: EvDrainWrite, Core: 1, Cycle: 80, Addr: testAddr, Seq: 2, Region: 1, Val: 8, Flags: FlagApplied},
		{Kind: EvDrainWrite, Core: 0, Cycle: 90, Addr: testAddr, Seq: 1, Region: 1, Val: 7, Flags: FlagApplied},
	}
}

// multiPageDrain drains one region whose stores land on six shadow pages 32
// pages apart, more than one chunk of the shadow's page table and past its
// first directory, reads every word back, and ends with a read the shadow
// contradicts on the last page.
func multiPageDrain() []Event {
	const pages = 6
	addr := func(k int) uint64 { return testAddr + uint64(k)*32*slab.PageWords*8 }
	var evs []Event
	for k := 0; k < pages; k++ {
		evs = append(evs, Event{Kind: EvStore, Core: 0, Cycle: 10, Addr: addr(k), Seq: uint64(k + 1), Region: 1, Val: uint64(10 + k)})
	}
	evs = append(evs, Event{Kind: EvCommit, Core: 0, Cycle: 12, Region: 1},
		Event{Kind: EvDrain, Core: 0, Cycle: 80, Region: 1, Val: addr(0), Val2: addr(pages - 1), Count: pages})
	for k := 0; k < pages; k++ {
		evs = append(evs, Event{Kind: EvDrainWrite, Core: 0, Cycle: 80, Addr: addr(k), Seq: uint64(k + 1), Region: 1, Val: uint64(10 + k), Flags: FlagApplied})
	}
	for k := 0; k < pages; k++ {
		evs = append(evs, Event{Kind: EvNVMRead, Core: 0, Cycle: 90, Addr: addr(k), Seq: uint64(k + 1), Val: uint64(10 + k), Val2: uint64(10 + k)})
	}
	return append(evs, Event{Kind: EvNVMRead, Core: 0, Cycle: 91, Addr: addr(pages - 1), Seq: pages, Val: 0, Val2: 0})
}

// readCorpusBytes reads one native-fuzzing corpus file holding a single
// []byte value.
func readCorpusBytes(f *testing.F, path string) []byte {
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	lines := strings.SplitN(strings.TrimSpace(string(raw)), "\n", 2)
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		f.Fatalf("%s: not a corpus file", path)
	}
	lit, ok := strings.CutPrefix(lines[1], "[]byte(")
	if lit, ok = strings.CutSuffix(lit, ")"); !ok {
		f.Fatalf("%s: not a []byte entry", path)
	}
	b, err := strconv.Unquote(lit)
	if err != nil {
		f.Fatalf("%s: %v", path, err)
	}
	return []byte(b)
}

// mapAuditor is the map-keyed reference model: the auditor's rules over the
// shadow layout it replaced, kept verbatim but for the recorder chains.
type mapStoreRec struct {
	core   int32
	addr   uint64
	region uint64
	undo   uint64
	redo   uint64
	sync   bool // store is a synchronizing op (atomic RMW, lock, unlock)
}

type mapSeqVal struct {
	seq       uint64
	val       uint64
	core      int32
	committed bool // version persisted by a drain-family write of a committed region
}

type mapWinEntry struct {
	expiry uint64
	seq    uint64
}

type mapCoreShadow struct {
	order []uint64 // pending sequences in issue order

	lastCommit uint64
	lastDrain  uint64
	// tracked: the core has committed (or resumed from) a region, so a
	// recovery resets its watermarks.
	tracked bool

	pendingSync    uint64 // region whose sync awaits its sealing commit
	hasPendingSync bool

	commitAtCrash  uint64
	drainAtCrash   uint64
	trackedAtCrash bool
	lastReplay     uint64
}

type mapAuditor struct {
	opt Options

	idx     uint64 // events consumed
	lastSeq uint64 // newest store sequence seen

	nvm    map[uint64]mapSeqVal   // shadow NVM word versions
	window map[uint64]mapWinEntry // monitoring-window mirror

	stores map[uint64]mapStoreRec // pending (undrained) stores by global sequence
	cores  []mapCoreShadow        // indexed by core, Options.Cores long

	syncPersist map[uint64]uint64 // word addr -> newest applied sync-store sequence

	crashed bool

	violations []Violation
	total      uint64 // all violations, including unretained ones
}

func newMapAuditor(opt Options) *mapAuditor {
	return &mapAuditor{
		opt:         opt,
		nvm:         map[uint64]mapSeqVal{},
		window:      map[uint64]mapWinEntry{},
		stores:      map[uint64]mapStoreRec{},
		cores:       make([]mapCoreShadow, max(opt.Cores, 0)),
		syncPersist: map[uint64]uint64{},
	}
}

func (a *mapAuditor) violate(e Event, rule, format string, args ...interface{}) {
	a.total++
	if len(a.violations) >= maxKeptViolations {
		return
	}
	a.violations = append(a.violations, Violation{Rule: rule, Detail: fmt.Sprintf(format, args...), Index: a.idx, Event: e})
}

func (a *mapAuditor) shadow(addr uint64) mapSeqVal { return a.nvm[addr] }

// Tap consumes one event, updating the shadow model and checking the
// invariants that fire on it.
func (a *mapAuditor) Tap(e Event) {
	if (e.Core < 0 || int(e.Core) >= len(a.cores)) && !machineWide(e.Kind) {
		a.violate(e, "core-out-of-range", "%s event from core %d, machine has %d cores", e.Kind, e.Core, len(a.cores))
		a.idx++
		return
	}
	switch e.Kind {
	case EvStore:
		a.onStore(e)
	case EvCommit:
		a.onCommit(e)
	case EvLaunch:
		a.onLaunch(e)
	case EvBackArrive:
		a.onArrive(e)
	case EvWritebackWord:
		a.onWritebackWord(e)
	case EvDrain:
		a.onDrain(e)
	case EvDrainWrite:
		a.onDrainWrite(e)
	case EvNVMRead:
		a.onNVMRead(e)
	case EvCrash:
		a.onCrash(e)
	case EvRecoveryRedoWrite:
		a.onReplayWrite(e)
	case EvRecoveryRedo:
		a.onReplayMarker(e)
	case EvRecoveryUndo:
		a.onUndo(e)
	case EvRecoveryDone:
		a.onRecoveryDone(e)
	case EvTornWriteback:
		a.onTornWriteback(e)
	case EvTornDrainWrite:
		a.onTornDrainWrite(e)
	case EvSync:
		a.onSync(e)
	}
	a.idx++
}

func (a *mapAuditor) onStore(e Event) {
	if e.Seq <= a.lastSeq {
		a.violate(e, "store-seq-monotone", "store sequence %d not above previous %d", e.Seq, a.lastSeq)
	}
	a.lastSeq = e.Seq
	c := &a.cores[e.Core]
	open := c.lastCommit + 1
	if e.Region != open {
		a.violate(e, "store-open-region", "store tagged region %d, core %d's open region is %d", e.Region, e.Core, open)
	}
	if c.hasPendingSync {
		a.violate(e, "sync-unordered-commit",
			"core %d issued store addr %#x seq %d before region %d's sync sealed its commit",
			e.Core, e.Addr, e.Seq, c.pendingSync)
		c.hasPendingSync = false // one violation per dropped commit
	}
	a.stores[e.Seq] = mapStoreRec{core: e.Core, addr: e.Addr, region: e.Region, undo: e.Val2, redo: e.Val}
	c.order = append(c.order, e.Seq)
}

// onSync records a synchronizing store. Its data entry (EvStore, same
// sequence) precedes it and its sealing commit marker must be the issuing
// core's very next contribution to the stream — tracked via pendingSync.
func (a *mapAuditor) onSync(e Event) {
	if s, ok := a.stores[e.Seq]; ok && s.core == e.Core && s.addr == e.Addr {
		s.sync = true
		a.stores[e.Seq] = s
	} else {
		a.violate(e, "sync-unknown-store",
			"sync addr %#x seq %d matches no issued store of core %d", e.Addr, e.Seq, e.Core)
	}
	c := &a.cores[e.Core]
	c.pendingSync, c.hasPendingSync = e.Region, true
}

func (a *mapAuditor) onCommit(e Event) {
	c := &a.cores[e.Core]
	if want := c.lastCommit + 1; e.Region != want {
		a.violate(e, "commit-order", "core %d committed region %d, expected %d", e.Core, e.Region, want)
	}
	if e.Region > c.lastCommit {
		c.lastCommit, c.tracked = e.Region, true
	}
	if c.hasPendingSync && e.Region >= c.pendingSync {
		c.hasPendingSync = false
	}
}

func (a *mapAuditor) onLaunch(e Event) {
	if e.Flags.Has(FlagBoundary) {
		if lc := a.cores[e.Core].lastCommit; e.Region > lc {
			a.violate(e, "launch-before-commit", "core %d launched marker for region %d above commit watermark %d", e.Core, e.Region, lc)
		}
		return
	}
	if s, ok := a.stores[e.Seq]; !ok || s.core != e.Core || s.addr != e.Addr {
		a.violate(e, "launch-unknown-store", "launched entry addr %#x seq %d matches no issued store", e.Addr, e.Seq)
	}
}

func (a *mapAuditor) onArrive(e Event) {
	if e.Flags.Has(FlagBoundary) {
		return
	}
	hit := false
	if a.opt.Windows {
		if w, ok := a.window[e.Addr]; ok && e.Val <= w.expiry && e.Seq <= w.seq {
			hit = true
		}
	}
	valid := e.Flags.Has(FlagValid)
	if hit && valid {
		w := a.window[e.Addr]
		a.violate(e, "window-missed-invalidation",
			"entry addr %#x seq %d arrived valid at cycle %d inside live window (expiry %d, wb seq %d)",
			e.Addr, e.Seq, e.Val, w.expiry, w.seq)
	}
	if !hit && !valid {
		a.violate(e, "window-spurious-invalidation",
			"entry addr %#x seq %d arrived invalid at cycle %d with no matching monitoring window",
			e.Addr, e.Seq, e.Val)
	}
}

func (a *mapAuditor) onWritebackWord(e Event) {
	a.checkGuard(e, "writeback", false)
	if a.opt.Windows {
		a.noteWriteback(e.Addr, e.Seq, e.Cycle)
	}
}

func (a *mapAuditor) noteWriteback(addr, seq, now uint64) {
	w, ok := a.window[addr]
	if !ok || w.seq < seq || w.expiry < now+a.opt.ProxyLatency {
		a.window[addr] = mapWinEntry{expiry: now + a.opt.ProxyLatency, seq: seq}
	}
	if len(a.window) > 4096 {
		for ad, we := range a.window {
			if we.expiry < now {
				delete(a.window, ad)
			}
		}
	}
}

// checkGuard asserts the NVM write's applied/dropped outcome matches the
// sequence-guard prediction and folds the write into the shadow. committed
// marks drain-family writes (the version they install is a committed
// region's) — the cross-core rules key off it.
func (a *mapAuditor) checkGuard(e Event, what string, committed bool) {
	sv := a.shadow(e.Addr)
	expected := e.Seq > sv.seq
	applied := e.Flags.Has(FlagApplied)
	if applied != expected {
		if applied {
			a.violate(e, "seq-guard-mismatch",
				"stale %s persisted: addr %#x seq %d overwrote shadow seq %d",
				what, e.Addr, e.Seq, sv.seq)
		} else {
			a.violate(e, "seq-guard-mismatch",
				"%s addr %#x seq %d dropped though shadow holds older seq %d",
				what, e.Addr, e.Seq, sv.seq)
		}
	}
	if applied && committed && sv.committed && e.Seq < sv.seq && e.Core != sv.core {
		a.violate(e, "line-version-chain",
			"core %d's %s addr %#x seq %d clobbered core %d's newer committed version (seq %d) — concurrent per-core drains broke the line's version chain",
			e.Core, what, e.Addr, e.Seq, sv.core, sv.seq)
	}
	if applied {
		a.nvm[e.Addr] = mapSeqVal{seq: e.Seq, val: e.Val, core: e.Core, committed: committed}
	}
}

// checkSyncPersist asserts that applied NVM persists of synchronizing stores
// to one word occur in execution (sequence) order: same-line atomics must
// reach NVM in the order they executed, whichever core's drain carries them.
func (a *mapAuditor) checkSyncPersist(e Event) {
	if s := a.stores[e.Seq]; !s.sync || !e.Flags.Has(FlagApplied) {
		return
	}
	if last := a.syncPersist[e.Addr]; e.Seq < last {
		a.violate(e, "sync-persist-order",
			"sync store addr %#x seq %d persisted after newer sync seq %d — atomic persist order diverged from execution order",
			e.Addr, e.Seq, last)
		return
	}
	a.syncPersist[e.Addr] = e.Seq
}

func (a *mapAuditor) onDrain(e Event) {
	c := &a.cores[e.Core]
	if e.Region <= c.lastDrain && c.lastDrain != 0 {
		a.violate(e, "drain-order", "core %d drained region %d after region %d", e.Core, e.Region, c.lastDrain)
	}
	if e.Region > c.lastCommit {
		a.violate(e, "drain-before-commit",
			"core %d drained region %d before its commit marker (commit watermark %d)",
			e.Core, e.Region, c.lastCommit)
	}
	a.pruneBelow(c, e.Region)
	if e.Region > c.lastDrain {
		c.lastDrain = e.Region
	}
}

// pruneBelow retires pending stores of regions strictly below r on one core
// (their region has fully drained; per-core store order is region-ordered,
// so the per-core issue queue pops from the front). The survivors are copied
// down so the queue's backing array is reused.
func (a *mapAuditor) pruneBelow(c *mapCoreShadow, r uint64) {
	q := c.order
	i := 0
	for ; i < len(q); i++ {
		s, ok := a.stores[q[i]]
		if !ok {
			continue
		}
		if s.region >= r {
			break
		}
		delete(a.stores, q[i])
	}
	if i > 0 {
		c.order = q[:copy(q, q[i:])]
	}
}

// matchStore checks a drained/replayed redo against the issued-store record.
func (a *mapAuditor) matchStore(e Event, rule string) {
	s, ok := a.stores[e.Seq]
	if !ok || s.core != e.Core || s.addr != e.Addr || s.redo != e.Val {
		a.violate(e, rule+"-unknown-store",
			"redo addr %#x seq %d val %d matches no issued store of core %d",
			e.Addr, e.Seq, e.Val, e.Core)
		return
	}
	if s.region != e.Region {
		a.violate(e, rule+"-wrong-region",
			"redo addr %#x seq %d issued in region %d, drained with region %d",
			e.Addr, e.Seq, s.region, e.Region)
	}
}

func (a *mapAuditor) onDrainWrite(e Event) {
	a.matchStore(e, "drain")
	a.checkSyncPersist(e)
	a.checkGuard(e, "redo", true)
}

func (a *mapAuditor) onNVMRead(e Event) {
	if sv := a.shadow(e.Addr); sv.seq != e.Seq || sv.val != e.Val {
		a.violate(e, "nvm-shadow-divergence",
			"NVM word %#x is (val %d, seq %d), shadow predicts (val %d, seq %d)",
			e.Addr, e.Val, e.Seq, sv.val, sv.seq)
	}
	if e.Val != e.Val2 {
		// The architectural and persisted values differ: legal only while an
		// issued-but-undrained store newer than the NVM version explains it.
		// The pending set is small (bounded by the proxy buffers) and this
		// path is rare, so a scan beats keeping a per-word index.
		explained := false
		for seq, s := range a.stores {
			if s.addr == e.Addr && seq > e.Seq {
				explained = true
				break
			}
		}
		if !explained {
			a.violate(e, "stale-nvm-read",
				"NVM read of %#x returned seq %d val %d, architectural val %d, with no pending store explaining the gap",
				e.Addr, e.Seq, e.Val, e.Val2)
		}
	}
}

func (a *mapAuditor) onCrash(e Event) {
	if e.Flags.Has(FlagNested) {
		if !a.crashed {
			a.violate(e, "nested-crash-outside-recovery",
				"crash flagged nested with no recovery in progress")
			return
		}
		// Power failed *during* recovery. The battery-backed streams are
		// unchanged, so the crash watermarks stand; only replay progress
		// resets — the restarted recovery replays the streams from the top,
		// and the sequence-guard rules verify its idempotence exactly.
		for i := range a.cores {
			a.cores[i].lastReplay = 0
		}
		return
	}
	a.crashed = true
	for i := range a.cores {
		c := &a.cores[i]
		c.commitAtCrash, c.drainAtCrash, c.trackedAtCrash = c.lastCommit, c.lastDrain, c.tracked
		c.lastReplay = 0
		// Execution stopped: a sync awaiting its commit cannot misorder anymore.
		c.hasPendingSync = false
	}
}

// onTornWriteback checks a torn dirty-line writeback: tearing may only
// happen at a power failure, may only revert a word the torn write still
// owns, and may only move the word backward in version order.
func (a *mapAuditor) onTornWriteback(e Event) {
	if !a.crashed {
		a.violate(e, "torn-outside-crash",
			"torn writeback word %#x with no power failure in progress", e.Addr)
		return
	}
	sv := a.shadow(e.Addr)
	if sv.val != e.Val2 {
		a.violate(e, "torn-ownership",
			"torn writeback reverted word %#x holding val %d (seq %d), but the torn write installed %d — a later write owns the word",
			e.Addr, sv.val, sv.seq, e.Val2)
	}
	if e.Seq > sv.seq {
		a.violate(e, "torn-forward",
			"torn writeback moved word %#x forward: restored seq %d above shadow seq %d",
			e.Addr, e.Seq, sv.seq)
	}
	a.nvm[e.Addr] = mapSeqVal{seq: e.Seq, val: e.Val, core: e.Core}
}

// onTornDrainWrite checks a torn phase-2 drain prefix: only a committed but
// not-yet-drained region can have a drain in flight, every pre-applied redo
// must match an issued store of that region, and the sequence guard's
// verdict must match the shadow.
func (a *mapAuditor) onTornDrainWrite(e Event) {
	if !a.crashed {
		a.violate(e, "torn-outside-crash",
			"torn drain write %#x with no power failure in progress", e.Addr)
		return
	}
	a.matchStore(e, "torn-drain")
	c := &a.cores[e.Core]
	if e.Region > c.commitAtCrash {
		a.violate(e, "torn-uncommitted-region",
			"torn drain pushed redo of region %d above core %d's commit watermark %d",
			e.Region, e.Core, c.commitAtCrash)
	}
	if dr := c.drainAtCrash; dr != 0 && e.Region <= dr {
		a.violate(e, "torn-drained-region",
			"torn drain pushed redo of region %d, already drained through %d",
			e.Region, dr)
	}
	a.checkSyncPersist(e)
	a.checkGuard(e, "torn drain", true)
}

func (a *mapAuditor) onReplayWrite(e Event) {
	if !a.crashed {
		return
	}
	a.matchStore(e, "replay")
	if dr := a.cores[e.Core].drainAtCrash; e.Region <= dr && dr != 0 {
		a.violate(e, "replay-drained-region", "recovery replayed redo of region %d, already drained through %d", e.Region, dr)
	}
	a.checkSyncPersist(e)
	a.checkGuard(e, "recovery redo", true)
}

func (a *mapAuditor) onReplayMarker(e Event) {
	if !a.crashed {
		return
	}
	c := &a.cores[e.Core]
	if e.Region <= c.lastReplay && c.lastReplay != 0 {
		a.violate(e, "replay-order", "core %d replayed region %d after region %d", e.Core, e.Region, c.lastReplay)
	}
	if e.Region <= c.drainAtCrash && c.drainAtCrash != 0 {
		a.violate(e, "replay-drained-region", "core %d replayed region %d, already drained through %d", e.Core, e.Region, c.drainAtCrash)
	}
	if e.Region > c.commitAtCrash {
		a.violate(e, "replay-uncommitted-region", "core %d replayed region %d above commit watermark %d at crash", e.Core, e.Region, c.commitAtCrash)
	}
	if e.Region > c.lastReplay {
		c.lastReplay = e.Region
	}
}

func (a *mapAuditor) onUndo(e Event) {
	if !a.crashed {
		return
	}
	s, ok := a.stores[e.Seq]
	if !ok || s.core != e.Core || s.addr != e.Addr || s.undo != e.Val {
		a.violate(e, "undo-unknown-store",
			"undo addr %#x firstseq %d val %d matches no issued store of core %d",
			e.Addr, e.Seq, e.Val, e.Core)
	} else if open := a.cores[e.Core].commitAtCrash + 1; s.region != open {
		a.violate(e, "undo-open-region",
			"undone store addr %#x firstseq %d belongs to region %d, not the interrupted region %d",
			e.Addr, e.Seq, s.region, open)
	}
	sv := a.shadow(e.Addr)
	expected := sv.seq >= e.Seq
	applied := e.Flags.Has(FlagApplied)
	if applied != expected {
		a.violate(e, "undo-guard-mismatch",
			"undo of addr %#x firstseq %d applied=%v, shadow seq %d predicts %v",
			e.Addr, e.Seq, applied, sv.seq, expected)
	}
	if applied && sv.committed && sv.core != e.Core {
		a.violate(e, "undo-clobbers-committed",
			"undo of core %d's uncommitted store addr %#x firstseq %d destroyed core %d's committed NVM version (seq %d) — the detectability contract let a rollback-able value escape",
			e.Core, e.Addr, e.Seq, sv.core, sv.seq)
	}
	if applied {
		newSeq := uint64(0)
		if e.Seq > 0 {
			newSeq = e.Seq - 1
		}
		a.nvm[e.Addr] = mapSeqVal{seq: newSeq, val: e.Val, core: e.Core}
	}
}

func (a *mapAuditor) onRecoveryDone(Event) {
	if !a.crashed {
		return
	}
	for i := range a.cores {
		c := &a.cores[i]
		// Resume watermarks: each core that committed or replayed restarts
		// from the newest durable region — the larger of what drained
		// before the crash and what recovery replayed.
		if c.trackedAtCrash || c.lastReplay != 0 {
			r := max(c.drainAtCrash, c.lastReplay)
			c.lastCommit, c.lastDrain, c.tracked = r, r, true
		}
		// Pending stores are gone: committed regions were replayed, the
		// interrupted region was undone; resumed execution issues fresh
		// ones. The per-core queues keep their backing arrays.
		c.order = c.order[:0]
		c.hasPendingSync = false
		c.commitAtCrash, c.drainAtCrash, c.trackedAtCrash, c.lastReplay = 0, 0, false, 0
	}
	clear(a.stores)
	clear(a.window)
	a.crashed = false
}
