package audit

import (
	"fmt"
	"strings"

	"capri/internal/slab"
)

// Options configure the Auditor's model of the machine it is checking.
type Options struct {
	// ProxyLatency is the proxy path latency in cycles — the monitoring
	// window mirror needs it to reproduce expiry times exactly.
	ProxyLatency uint64
	// Windows is true when the §5.3.2 machinery is active (Capri mode
	// without the NoScanInvalidate ablation): the auditor then mirrors the
	// monitoring window and checks arrival valid-bits against it.
	Windows bool
	// Cores is the machine's core count. The per-core shadow state is sized
	// to it once, and a per-core event (any kind but the machine-wide crash,
	// rec-done and torn-wb) from a core outside [0, Cores) is a
	// core-out-of-range violation that is otherwise ignored.
	Cores int
}

// machineWide reports whether events of kind k belong to the machine as a
// whole rather than to one core, so their Core field names no core.
func machineWide(k Kind) bool {
	return k == EvCrash || k == EvRecoveryDone || k == EvTornWriteback
}

// Violation is one detected protocol violation.
type Violation struct {
	Rule   string  // stable rule name (see DESIGN.md §4e)
	Detail string  // human-readable specifics
	Index  uint64  // 0-based position of the offending event in the stream
	Event  Event   // the offending event
	Chain  []Event // per-line provenance for the offending line (recorder attached)
}

// Error renders the violation with its event chain.
func (v Violation) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "audit: rule %s violated at event %d: %s\n  event: %s",
		v.Rule, v.Index, v.Detail, v.Event)
	if len(v.Chain) > 0 {
		fmt.Fprintf(&b, "\n  event chain (%d events):", len(v.Chain))
		for _, e := range v.Chain {
			fmt.Fprintf(&b, "\n    %s", e)
		}
	}
	return b.String()
}

// storeRec is the auditor's record of one issued, not yet retired store of
// one core: the provenance an entry's drained redo (and undone undo) must
// match.
type storeRec struct {
	seq    uint64
	addr   uint64
	region uint64
	undo   uint64
	redo   uint64
	sync   bool // store is a synchronizing op (atomic RMW, lock, unlock)
}

type winEntry struct {
	expiry uint64
	seq    uint64
}

// coreShadow is the auditor's per-core state: the pending stores in issue
// order, the commit/drain watermarks, the sync awaiting its sealing commit,
// and the watermarks a crash froze.
type coreShadow struct {
	// pending holds the core's issued-but-undrained stores by value in issue
	// order. Store sequences rise (store-seq-monotone), so it is sorted by
	// seq and searched by binary search; drains retire it from the front.
	pending []storeRec

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

// pendingStart is each core's carved pending-queue capacity: about one
// threshold-sized region's stores, beyond which the queue doubles.
const pendingStart = 64

// find returns the core's pending store with sequence seq, or nil.
func (c *coreShadow) find(seq uint64) *storeRec {
	q := c.pending
	lo, hi := 0, len(q)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if q[m].seq < seq {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(q) && q[lo].seq == seq {
		return &q[lo]
	}
	return nil
}

// maxKeptViolations bounds the stored violation list; further violations
// are counted but not retained (the first one is what matters — later ones
// are usually cascade noise from the same root cause).
const maxKeptViolations = 16

// Auditor is an online checker of the Fig. 7 protocol invariants. It
// maintains a shadow of every piece of persistence-relevant state the
// machine mutates — the NVM word versions, the monitoring windows, the
// per-core commit/drain watermarks, and the set of issued-but-undrained
// stores — and asserts on every event that the machine's behavior matches
// what the protocol allows:
//
//   - commit-order: per-core region commits are strictly consecutive.
//   - drain-before-commit / drain-order: a region drains only after its
//     commit marker, and drains are monotone per core.
//   - drain-unknown-store / drain-wrong-region: every drained redo matches
//     an issued store (same address, sequence, and value) of exactly the
//     drained region — i.e. every drained redo has a matching undo.
//   - seq-guard-mismatch: every NVM write's applied/dropped outcome equals
//     the sequence-guard prediction from the shadow; in particular a stale
//     redo must never persist over newer data.
//   - window-missed-invalidation / window-spurious-invalidation: a data
//     entry arriving at the back-end inside a live monitoring window whose
//     sequence is not newer must have its valid-bit unset, and only then.
//   - stale-nvm-read / nvm-shadow-divergence: a load served from NVM may
//     return data older than the architectural value only while a pending
//     (undrained) store explains the gap, and the NVM word must equal the
//     shadow rebuilt from the event stream.
//   - replay-order / replay-drained-region / replay-uncommitted-region:
//     recovery replays committed regions in commit order, never a region
//     that already drained, never one that never committed.
//   - undo-unknown-store / undo-open-region / undo-guard-mismatch:
//     recovery rolls back exactly the interrupted region's stores, with the
//     undo images captured at issue, under the FirstSeq guard.
//   - sync-unordered-commit / sync-unknown-store: a synchronizing store
//     (atomic RMW, lock, unlock) commits atomically with its own region —
//     the very next event the issuing core may contribute after the sync is
//     that region's commit marker; a store slipping in first means the sync
//     is still rollback-able while other cores can already observe it.
//   - sync-persist-order: applied NVM persists of synchronizing stores to
//     one word must follow execution (sequence) order — concurrent per-core
//     drains must not reorder same-line atomics on their way to NVM.
//   - line-version-chain: a committed region's drain-family write must never
//     clobber a newer committed version another core persisted — the
//     cross-core diagnosis layered on seq-guard-mismatch.
//   - undo-clobbers-committed: recovery's rollback of one core's
//     uncommitted store must never destroy a committed NVM version another
//     core persisted (the cross-core detectability contract at crash).
//   - torn-outside-crash / torn-ownership / torn-forward /
//     torn-uncommitted-region / torn-drained-region /
//     nested-crash-outside-recovery: the fault model's legality rules — a
//     write may tear only at a power failure, a torn writeback may only
//     revert a word the torn write still owns (backward in version order),
//     a torn drain prefix may only belong to the committed-undrained
//     region, and a nested crash may only occur inside recovery. After a
//     nested crash the replay watermarks reset while the crash watermarks
//     stand, so the sequence-guard rules verify the restarted recovery's
//     idempotence exactly.
//   - core-out-of-range: a per-core event names a core the machine does
//     not have (outside [0, Options.Cores)); the event is not otherwise
//     audited.
//
// The auditor must observe the machine from birth (attach the tap before
// the first instruction) and, for crash tests, stay attached across
// Crash/Recover so its shadow state carries over. Events arriving for a
// recovery the auditor did not see the crash of are ignored.
type Auditor struct {
	opt Options
	rec *FlightRecorder // optional; fills Violation.Chain

	idx     uint64 // events consumed
	lastSeq uint64 // newest store sequence seen

	nvm    shadowTable          // shadow NVM word versions and sync-persist watermarks
	window slab.Table[winEntry] // monitoring-window mirror; slots made on the first writeback
	cores  []coreShadow         // indexed by core, Options.Cores long

	crashed bool

	violations []Violation
	total      uint64 // all violations, including unretained ones
}

// NewAuditor returns an online auditor with the given model options in
// three allocations: the auditor, the per-core state at Options.Cores, and
// one backing every core's pending queue is carved from. The shadow's pages
// and directory and the window mirror are made on first use.
func NewAuditor(opt Options) *Auditor {
	n := max(opt.Cores, 0)
	a := &Auditor{opt: opt, cores: make([]coreShadow, n)}
	pending := make([]storeRec, n*pendingStart)
	for i := range a.cores {
		a.cores[i].pending = slab.Carve(&pending, pendingStart, 0)[:0]
	}
	return a
}

// AttachRecorder links a flight recorder whose retained events fill each
// violation's per-line chain. Tee the recorder *before* the auditor so the
// chain includes the offending event.
func (a *Auditor) AttachRecorder(r *FlightRecorder) { a.rec = r }

// Violations returns the retained violations in detection order.
func (a *Auditor) Violations() []Violation { return a.violations }

// ViolationCount returns the total number of violations detected,
// including ones beyond the retention cap.
func (a *Auditor) ViolationCount() uint64 { return a.total }

// Err returns nil when no invariant was violated, or an error describing
// the first violation (with its event chain).
func (a *Auditor) Err() error {
	if len(a.violations) == 0 {
		return nil
	}
	v := a.violations[0]
	if a.total > 1 {
		return fmt.Errorf("%s\n  (+%d further violations)", v.Error(), a.total-1)
	}
	return fmt.Errorf("%s", v.Error())
}

// EventsAudited returns the number of events consumed.
func (a *Auditor) EventsAudited() uint64 { return a.idx }

func (a *Auditor) violate(e Event, rule, format string, args ...interface{}) {
	a.total++
	if len(a.violations) >= maxKeptViolations {
		return
	}
	v := Violation{Rule: rule, Detail: fmt.Sprintf(format, args...), Index: a.idx, Event: e}
	if a.rec != nil {
		if e.HasAddr() {
			v.Chain = a.rec.ChainFor(e.Line())
		} else {
			v.Chain = a.rec.ChainForRegion(e.Core, e.Region)
		}
	}
	a.violations = append(a.violations, v)
}

func (a *Auditor) shadow(addr uint64) wordShadow { return a.nvm.peek(addr) }

// pendingStore returns core's pending store with sequence seq, or nil.
func (a *Auditor) pendingStore(core int32, seq uint64) *storeRec {
	return a.cores[core].find(seq)
}

// Tap consumes one event, updating the shadow model and checking the
// invariants that fire on it.
func (a *Auditor) Tap(e Event) {
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

func (a *Auditor) onStore(e Event) {
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
	c.pending = append(c.pending, storeRec{seq: e.Seq, addr: e.Addr, region: e.Region, undo: e.Val2, redo: e.Val})
}

// onSync records a synchronizing store. Its data entry (EvStore, same
// sequence) precedes it and its sealing commit marker must be the issuing
// core's very next contribution to the stream — tracked via pendingSync.
func (a *Auditor) onSync(e Event) {
	if s := a.pendingStore(e.Core, e.Seq); s != nil && s.addr == e.Addr {
		s.sync = true
	} else {
		a.violate(e, "sync-unknown-store",
			"sync addr %#x seq %d matches no issued store of core %d", e.Addr, e.Seq, e.Core)
	}
	c := &a.cores[e.Core]
	c.pendingSync, c.hasPendingSync = e.Region, true
}

func (a *Auditor) onCommit(e Event) {
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

func (a *Auditor) onLaunch(e Event) {
	if e.Flags.Has(FlagBoundary) {
		if lc := a.cores[e.Core].lastCommit; e.Region > lc {
			a.violate(e, "launch-before-commit", "core %d launched marker for region %d above commit watermark %d", e.Core, e.Region, lc)
		}
		return
	}
	if s := a.pendingStore(e.Core, e.Seq); s == nil || s.addr != e.Addr {
		a.violate(e, "launch-unknown-store", "launched entry addr %#x seq %d matches no issued store", e.Addr, e.Seq)
	}
}

func (a *Auditor) onArrive(e Event) {
	if e.Flags.Has(FlagBoundary) {
		return
	}
	hit := false
	if a.opt.Windows {
		if w := a.window.Get(e.Addr); w != nil && e.Val <= w.expiry && e.Seq <= w.seq {
			hit = true
		}
	}
	valid := e.Flags.Has(FlagValid)
	if hit && valid {
		w := a.window.Get(e.Addr)
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

func (a *Auditor) onWritebackWord(e Event) {
	a.checkGuard(e, "writeback", false)
	if a.opt.Windows {
		a.noteWriteback(e.Addr, e.Seq, e.Cycle)
	}
}

// noteWriteback mirrors proxy.Window.Note exactly — including the refresh
// rule and the opportunistic prune of every expired entry once more than
// 4096 are held — so the mirror stays identical to the machine's one
// monitoring window, which every core's path consults.
func (a *Auditor) noteWriteback(addr, seq, now uint64) {
	w, ok := a.window.Insert(addr)
	if !ok || w.seq < seq || w.expiry < now+a.opt.ProxyLatency {
		*w = winEntry{expiry: now + a.opt.ProxyLatency, seq: seq}
	}
	if a.window.Len() > 4096 {
		a.window.Prune(func(w *winEntry) bool { return w.expiry < now })
	}
}

// checkGuard asserts the NVM write's applied/dropped outcome matches the
// sequence-guard prediction and folds the write into the shadow. committed
// marks drain-family writes (the version they install is a committed
// region's) — the cross-core rules key off it.
func (a *Auditor) checkGuard(e Event, what string, committed bool) {
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
		a.nvm.setVersion(e.Addr, e.Seq, e.Val, e.Core, committed)
	}
}

// checkSyncPersist asserts that applied NVM persists of synchronizing stores
// to one word occur in execution (sequence) order: same-line atomics must
// reach NVM in the order they executed, whichever core's drain carries them.
// The store is looked up by sequence alone — on any core, the writing
// core's queue first.
func (a *Auditor) checkSyncPersist(e Event) {
	if !e.Flags.Has(FlagApplied) {
		return
	}
	if s := a.anyPendingStore(e.Core, e.Seq); s == nil || !s.sync {
		return
	}
	if last := a.shadow(e.Addr).syncSeq; e.Seq < last {
		a.violate(e, "sync-persist-order",
			"sync store addr %#x seq %d persisted after newer sync seq %d — atomic persist order diverged from execution order",
			e.Addr, e.Seq, last)
		return
	}
	a.nvm.at(e.Addr).syncSeq = e.Seq
}

// anyPendingStore returns the pending store with sequence seq on any core,
// searching core's queue first. Sequences are unique while
// store-seq-monotone holds, so at most one core has it.
func (a *Auditor) anyPendingStore(core int32, seq uint64) *storeRec {
	if s := a.pendingStore(core, seq); s != nil {
		return s
	}
	for i := range a.cores {
		if i != int(core) {
			if s := a.cores[i].find(seq); s != nil {
				return s
			}
		}
	}
	return nil
}

func (a *Auditor) onDrain(e Event) {
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
func (a *Auditor) pruneBelow(c *coreShadow, r uint64) {
	q := c.pending
	i := 0
	for i < len(q) && q[i].region < r {
		i++
	}
	if i > 0 {
		c.pending = q[:copy(q, q[i:])]
	}
}

// matchStore checks a drained/replayed redo against the issued-store record.
func (a *Auditor) matchStore(e Event, rule string) {
	s := a.pendingStore(e.Core, e.Seq)
	if s == nil || s.addr != e.Addr || s.redo != e.Val {
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

func (a *Auditor) onDrainWrite(e Event) {
	a.matchStore(e, "drain")
	a.checkSyncPersist(e)
	a.checkGuard(e, "redo", true)
}

func (a *Auditor) onNVMRead(e Event) {
	if sv := a.shadow(e.Addr); sv.seq != e.Seq || sv.val != e.Val {
		a.violate(e, "nvm-shadow-divergence",
			"NVM word %#x is (val %d, seq %d), shadow predicts (val %d, seq %d)",
			e.Addr, e.Val, e.Seq, sv.val, sv.seq)
	}
	if e.Val != e.Val2 {
		// The architectural and persisted values differ: legal only while an
		// issued-but-undrained store newer than the NVM version explains it.
		if !a.pendingNewer(e.Addr, e.Seq) {
			a.violate(e, "stale-nvm-read",
				"NVM read of %#x returned seq %d val %d, architectural val %d, with no pending store explaining the gap",
				e.Addr, e.Seq, e.Val, e.Val2)
		}
	}
}

// pendingNewer reports whether any core has a pending store to addr newer
// than seq. The pending set is small (bounded by the proxy buffers) and the
// stale-read path is rare, so a scan beats keeping a per-word index.
func (a *Auditor) pendingNewer(addr, seq uint64) bool {
	for i := range a.cores {
		for _, s := range a.cores[i].pending {
			if s.addr == addr && s.seq > seq {
				return true
			}
		}
	}
	return false
}

func (a *Auditor) onCrash(e Event) {
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
func (a *Auditor) onTornWriteback(e Event) {
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
	a.nvm.setVersion(e.Addr, e.Seq, e.Val, e.Core, false)
}

// onTornDrainWrite checks a torn phase-2 drain prefix: only a committed but
// not-yet-drained region can have a drain in flight, every pre-applied redo
// must match an issued store of that region, and the sequence guard's
// verdict must match the shadow.
func (a *Auditor) onTornDrainWrite(e Event) {
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

func (a *Auditor) onReplayWrite(e Event) {
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

func (a *Auditor) onReplayMarker(e Event) {
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

func (a *Auditor) onUndo(e Event) {
	if !a.crashed {
		return
	}
	s := a.pendingStore(e.Core, e.Seq)
	if s == nil || s.addr != e.Addr || s.undo != e.Val {
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
		a.nvm.setVersion(e.Addr, newSeq, e.Val, e.Core, false)
	}
}

func (a *Auditor) onRecoveryDone(Event) {
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
		c.pending = c.pending[:0]
		c.hasPendingSync = false
		c.commitAtCrash, c.drainAtCrash, c.trackedAtCrash, c.lastReplay = 0, 0, false, 0
	}
	// The recovered machine starts with an empty monitoring window.
	a.window.Clear()
	a.crashed = false
}
