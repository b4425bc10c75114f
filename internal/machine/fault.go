package machine

import (
	"fmt"

	"capri/internal/audit"
	"capri/internal/mem"
)

// This file is the machine half of the hardware fault model (DESIGN.md §4f):
// torn NVM line writes at power failure, transient NVM write errors during
// phase-2 drains (bounded retry-with-backoff), and the hooks the fault
// package's campaign engine drives. Everything here is inert until
// ArmFaults is called — the unarmed hot path pays one nil check at the two
// cold(ish) points that consult the fault state (controller writeback and
// drain completion), and nothing per instruction.

// DefaultJournalDepth is the in-flight line-write window modeled as tearable
// at a power failure: the newest N dirty-line writebacks are considered
// potentially incomplete (still crossing the WPQ) when power fails.
const DefaultJournalDepth = 16

// DefaultRetryMax is the drain-retry budget before the machine degrades to a
// hard stall with a structured DrainExhaustedError.
const DefaultRetryMax = 8

// FaultConfig arms the machine's fault model.
type FaultConfig struct {
	// JournalDepth is how many recent dirty-line writebacks stay tearable
	// (<= 0: DefaultJournalDepth).
	JournalDepth int
	// DrainError, when non-nil, is consulted once per phase-2 drain
	// completion attempt: returning true models a transient NVM write error —
	// the drain is re-booked after an exponential backoff. core/region
	// identify the drain; attempt counts prior failures of the same drain.
	DrainError func(core int, region uint64, attempt int) bool
	// RetryMax bounds consecutive failures of one drain before the machine
	// stops with a DrainExhaustedError (<= 0: DefaultRetryMax).
	RetryMax int
	// RetryBackoff is the base backoff in cycles, doubled per failed attempt
	// (<= 0: the config's NVMWrite latency).
	RetryBackoff uint64
}

// faultState is the armed fault model: the tearable-writeback journal plus
// the drain-error hook parameters.
type faultState struct {
	journalDepth int
	journal      []tearableLine // ring, oldest first once full
	journalNext  int
	journalLen   int
	drainError   func(core int, region uint64, attempt int) bool
	retryMax     int
	retryBackoff uint64
}

// tearableLine is one journaled dirty-line writeback: the guard-passed word
// writes it performed, with enough provenance to revert a suffix soundly.
type tearableLine struct {
	line  uint64
	cycle uint64
	seq   uint64
	words []tornWord
}

// tornWord is one applied word write of a journaled line: the NVM word it
// replaced (old) and the word it installed (new).
type tornWord struct {
	addr uint64
	old  mem.Word
	new  mem.Word
}

// ArmFaults installs the fault model. Passing the zero FaultConfig arms the
// torn-write journal with defaults and no drain errors.
func (m *Machine) ArmFaults(fc FaultConfig) {
	fs := &faultState{
		journalDepth: fc.JournalDepth,
		drainError:   fc.DrainError,
		retryMax:     fc.RetryMax,
		retryBackoff: fc.RetryBackoff,
	}
	if fs.journalDepth <= 0 {
		fs.journalDepth = DefaultJournalDepth
	}
	if fs.retryMax <= 0 {
		fs.retryMax = DefaultRetryMax
	}
	if fs.retryBackoff == 0 {
		fs.retryBackoff = m.cfg.NVMWrite
	}
	fs.journal = make([]tearableLine, fs.journalDepth)
	m.flt = fs
}

// noteLineWrite journals one dirty-line writeback's applied word writes.
func (fs *faultState) noteLineWrite(line, cycle, seq uint64, words []tornWord) {
	slot := &fs.journal[fs.journalNext]
	slot.line, slot.cycle, slot.seq = line, cycle, seq
	slot.words = append(slot.words[:0], words...)
	fs.journalNext = (fs.journalNext + 1) % fs.journalDepth
	if fs.journalLen < fs.journalDepth {
		fs.journalLen++
	}
}

// confirm marks one NVM word durable: a later write to the word entered the
// write queue — or the drain engine verified NVM against the sequence guard
// and elided its write — and same-address writes complete in order, so any
// journaled earlier write of the word must have fully left the WPQ. It can
// no longer tear. (Without this, a value- and seq-identical elided drain
// write would leave the ownership guard blind and a tear could destroy
// committed data recovery cannot rebuild.)
func (fs *faultState) confirm(addr uint64) {
	for i := range fs.journal {
		lw := &fs.journal[i]
		if len(lw.words) == 0 || addr < lw.line || addr >= lw.line+64 {
			continue
		}
		kept := lw.words[:0]
		for _, w := range lw.words {
			if w.addr != addr {
				kept = append(kept, w)
			}
		}
		lw.words = kept
	}
}

// pick returns the idx-th newest journaled line write (0 = newest).
func (fs *faultState) pick(idx int) *tearableLine {
	if idx < 0 || idx >= fs.journalLen {
		return nil
	}
	i := fs.journalNext - 1 - idx
	for i < 0 {
		i += fs.journalDepth
	}
	return &fs.journal[i]
}

// TearKind selects which in-flight write a Tear interrupts.
type TearKind uint8

// Tear kinds.
const (
	// TearWriteback tears a recent dirty-line writeback: of the line's
	// guard-passed word writes (ascending address order), only the first
	// Keep persist; the rest revert to the pre-writeback NVM words. A word
	// is reverted only while NVM still holds exactly the journaled write —
	// a later write owns the word and cannot be torn retroactively.
	TearWriteback TearKind = iota
	// TearDrain tears the oldest booked-but-incomplete phase-2 drain of
	// core Pick: the first Keep valid redo entries are pre-applied to NVM
	// (seq-guarded) as if the WPQ had begun the drain when power failed.
	// The region's entries remain in the battery-backed back-end, so
	// recovery re-replays them — idempotently, under the sequence guard.
	TearDrain
)

// Tear is one torn-write specification applied at CrashTorn.
type Tear struct {
	Kind TearKind
	Pick int // TearWriteback: journal index, 0 = newest; TearDrain: core
	Keep int // prefix that persisted (words / valid entries)
}

// Mutations are test-only protocol corruptions for the fault campaign's
// mutation tests: each disables one step the recovery argument depends on,
// and the campaign must produce a minimal failing fault plan against it. All
// false in production.
var Mutations struct {
	// SkipUndo drops recovery's phase B entirely (uncommitted stores are
	// never rolled back).
	SkipUndo bool
	// SkipMarkerCheck replays the uncommitted tail of each crash stream as
	// if a commit marker had been present (the §5.4 marker check is gone).
	SkipMarkerCheck bool
	// DropTornPrefix makes every tear revert the whole journaled line —
	// ignoring the persisted prefix and the later-write ownership guard —
	// so a torn writeback can destroy committed data recovery cannot
	// rebuild.
	DropTornPrefix bool
	// SyncNoCommit drops the commit that a synchronizing store (atomic,
	// lock, unlock) must seal its region with: the sync op's write stays in
	// an open region, so a crash can roll it back after another core
	// observed it — the cross-core detectability contract is gone.
	SyncNoCommit bool
	// DrainNoGuard makes phase-2 drain writes bypass the NVM sequence
	// guard: a slow core's stale drain can clobber a newer committed value,
	// breaking the per-line version chain across cores.
	DrainNoGuard bool
	// ReplayNoGuard makes recovery's phase A redo writes bypass the NVM
	// sequence guard, so replaying crash streams in a different core order
	// yields different NVM images — recovery no longer commutes.
	ReplayNoGuard bool
}

// DrainExhaustedError is the structured report of a drain whose transient
// write errors exhausted the retry budget: the machine performs a hard stall
// (run returns this error) instead of guessing at forward progress.
type DrainExhaustedError struct {
	Core     int
	Region   uint64
	Attempts int
}

// Error formats the exhausted drain's core, region and attempt count.
func (e *DrainExhaustedError) Error() string {
	return fmt.Sprintf("machine: core %d: phase-2 drain of region %d exhausted %d write attempts (NVM write error persists)",
		e.Core, e.Region, e.Attempts)
}

// retryDrain consults the armed DrainError hook for core c's oldest booked
// drain. It returns true when the write goes through (the drain may retire
// now). On a transient error the drain is re-booked after an exponential
// backoff and false is returned; when the retry budget is exhausted the
// machine performs a hard stall with a structured DrainExhaustedError.
func (m *Machine) retryDrain(c *core, now uint64) bool {
	var region uint64
	if r, ok := c.back.Region(0); ok {
		region = r.Boundary.Region
	}
	if !m.flt.drainError(c.id, region, c.drainAttempts) {
		return true
	}
	c.drainAttempts++
	c.drainRetries++
	if c.drainAttempts > m.flt.retryMax {
		c.drainExhausted++
		if m.metrics != nil {
			m.metrics.DrainRetries.Record(uint64(c.drainAttempts))
		}
		if m.fatal == nil {
			m.fatal = &DrainExhaustedError{Core: c.id, Region: region, Attempts: c.drainAttempts}
		}
		return false
	}
	shift := c.drainAttempts - 1
	if shift > 16 {
		shift = 16
	}
	done := now + m.flt.retryBackoff<<shift
	// Later drains share the bank and cannot finish before the head retry.
	c.back.Rebook(done)
	if c.drainFree < done {
		c.drainFree = done
	}
	return false
}

// CrashTorn is Crash with torn in-flight writes: each Tear reverts or
// pre-applies the suffix/prefix of one in-flight 64B line write before the
// persistent image is harvested, modeling the faulty-PM reality that power
// failure preserves only a prefix of a line write's 8-byte words. Tears
// referencing writes that are not in flight are no-ops (the campaign treats
// them as vacuous). Requires ArmFaults for TearWriteback (the journal);
// TearDrain needs only a booked drain.
func (m *Machine) CrashTorn(tears []Tear) (*CrashImage, error) {
	if !m.cfg.Capri {
		return nil, fmt.Errorf("machine: baseline (volatile) machine has no crash image")
	}
	if m.tap != nil {
		m.tap.Tap(audit.Event{Kind: audit.EvCrash, Cycle: m.Cycles()})
	}
	for _, t := range tears {
		switch t.Kind {
		case TearWriteback:
			m.tearWriteback(t)
		case TearDrain:
			m.tearDrain(t)
		}
	}
	return m.harvest(), nil
}

// tearWriteback reverts the un-persisted suffix of a journaled line write.
func (m *Machine) tearWriteback(t Tear) {
	if m.flt == nil {
		return
	}
	lw := m.flt.pick(t.Pick)
	if lw == nil {
		return
	}
	keep := t.Keep
	if Mutations.DropTornPrefix {
		keep = 0
	}
	for i, w := range lw.words {
		if i < keep {
			continue
		}
		cur := m.nvm.Peek(w.addr)
		if !Mutations.DropTornPrefix && cur != w.new {
			// A later write (drain, newer writeback) owns this word; the
			// journaled write already fully left the WPQ for it. Not
			// tearable.
			continue
		}
		m.nvm.Restore(w.addr, w.old.Val, w.old.Seq)
		if m.tap != nil {
			m.tap.Tap(audit.Event{
				Kind: audit.EvTornWriteback, Core: -1, Cycle: m.Cycles(),
				Addr: w.addr, Seq: w.old.Seq, Val: w.old.Val, Val2: w.new.Val,
				Flags: audit.FlagApplied,
			})
		}
	}
}

// tearDrain pre-applies a prefix of the oldest booked-but-incomplete drain
// of the chosen core.
func (m *Machine) tearDrain(t Tear) {
	if len(m.cores) == 0 {
		return
	}
	c := m.cores[((t.Pick%len(m.cores))+len(m.cores))%len(m.cores)]
	if c.back.Booked() == 0 {
		return // no drain in flight
	}
	r, ok := c.back.Region(0)
	if !ok {
		return
	}
	applied := 0
	for i := range r.Data {
		if applied >= t.Keep {
			break
		}
		e := &r.Data[i]
		if !e.Valid {
			continue
		}
		ok := m.nvm.Write(e.Addr, e.Redo, e.Seq)
		applied++
		if m.tap != nil {
			ev := audit.Event{
				Kind: audit.EvTornDrainWrite, Core: int32(c.id), Cycle: m.Cycles(),
				Addr: e.Addr, Seq: e.Seq, Region: r.Boundary.Region, Val: e.Redo,
			}
			if ok {
				ev.Flags |= audit.FlagApplied
			}
			m.tap.Tap(ev)
		}
	}
}
