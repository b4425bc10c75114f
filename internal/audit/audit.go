// Package audit is the event-sourced provenance layer for the memory
// system: the machine emits one Event for every per-line lifecycle step of
// the two-phase atomic store — store issued (undo/redo captured in the
// front-end proxy), entry launched on the proxy path, back-end arrival
// (with the monitoring-window verdict), region commit, dirty writeback at
// the memory controller, phase-2 drain to NVM, NVM read served, crash, and
// the recovery protocol's redo/undo applications.
//
// The package provides two consumers of the Sink interface:
//
//   - FlightRecorder: a bounded ring that can dump the full event chain for
//     any cache line and serialize a self-describing run record
//     (capri/run-record/v1 JSON — see record.go and cmd/capriinspect).
//   - Auditor: an online checker that maintains a per-line state machine and
//     asserts the safety invariants of paper Fig. 7 on every event (see
//     auditor.go and DESIGN.md §4e).
//
// The trace package's Recorder is a third: the persistence-event timeline
// behind `caprisim -trace-out` is a view of the same stream.
//
// The package is a leaf: it imports only the standard library, so the
// machine, recovery, and trace layers can all import it without cycles.
package audit

import "fmt"

// Kind classifies a provenance event.
type Kind uint8

// Event kinds, in rough lifecycle order of a persisted store.
const (
	// EvStore: a store issued and allocated (or merged into) a front-end
	// proxy entry. Addr/Seq identify the store, Val is the redo image,
	// Val2 the undo image, Region the (open) region it belongs to.
	// FlagMerged marks same-region address merging.
	EvStore Kind = iota
	// EvCommit: a region boundary committed (the commit marker entered the
	// non-volatile front-end, or was elided for a store-free region).
	// Region is the committed region; FlagElided / FlagHalt annotate.
	EvCommit
	// EvLaunch: an entry departed the front-end onto the proxy path.
	// Val is the departure cycle. Data entries carry Addr/Seq; boundary
	// entries carry Region and FlagBoundary.
	EvLaunch
	// EvBackArrive: an entry arrived at the back-end proxy buffer.
	// Val is the true arrival cycle on the wire (which the monitoring
	// window compares against — not the cycle the buffer was serviced).
	// FlagValid reflects the redo valid-bit after the window check;
	// FlagWindowHit marks a window invalidation.
	EvBackArrive
	// EvWriteback: a dirty cache line reached the integrated memory
	// controller. Addr is the line address, Seq the newest store sequence
	// the line absorbed.
	EvWriteback
	// EvWritebackWord: one dirty word of that line propagated to NVM
	// through the sequence guard. Addr is the word, Val the architectural
	// value written, FlagApplied whether the guard let it through.
	EvWritebackWord
	// EvDrain: a region completed phase 2. Region identifies it; Val/Val2
	// are the lowest/highest drained word addresses and Count the number
	// of valid entries drained.
	EvDrain
	// EvDrainWrite: one valid redo entry of that region written to NVM.
	// Addr/Seq/Val(redo) identify the merged store; FlagApplied is the
	// sequence guard's verdict.
	EvDrainWrite
	// EvNVMRead: a load missed every volatile level and was served from
	// NVM. Seq/Val are the NVM word's sequence and value, Val2 the
	// architectural value the load actually returned.
	EvNVMRead
	// EvStall: the core stalled on a full front-end proxy.
	EvStall
	// EvCrash: power failure injected. Cycle is the machine makespan.
	EvCrash
	// EvRecoveryRedoWrite: recovery replayed one valid redo entry of a
	// committed region found in the proxy-buffer streams. Fields as
	// EvDrainWrite.
	EvRecoveryRedoWrite
	// EvRecoveryRedo: recovery finished replaying a committed region's
	// marker (checkpoints folded into the core's recovery record).
	EvRecoveryRedo
	// EvRecoveryUndo: recovery rolled back one uncommitted entry. Addr is
	// the word, Seq the entry's FirstSeq, Val the undo image restored,
	// FlagApplied whether NVM actually held a version >= FirstSeq.
	EvRecoveryUndo
	// EvRecoveryDone: the recovery protocol completed; Count is the number
	// of cores resumed or halted.
	EvRecoveryDone
	// EvTornWriteback: at a power failure, an in-flight dirty-line
	// writeback tore — this 8-byte word reverted to its pre-writeback NVM
	// image. Addr is the word, Val/Seq the restored (old) value and
	// sequence, Val2 the value the torn write had installed.
	EvTornWriteback
	// EvTornDrainWrite: at a power failure, a booked-but-incomplete phase-2
	// drain had already pushed this valid redo entry to NVM. Fields as
	// EvDrainWrite (FlagApplied is the sequence guard's verdict); the
	// entry remains in the battery-backed back-end for recovery to replay.
	EvTornDrainWrite
	// EvSync: a synchronizing store (atomic RMW, lock, unlock) executed.
	// Addr/Seq identify the store, Val the new value, Val2 the old, Region
	// the region the op commits atomically with. Emitted before the sealing
	// EvCommit — a sync with no commit following it is a protocol violation
	// (the cross-core detectability contract depends on that commit).
	EvSync

	// NumKinds is the number of event kinds.
	NumKinds
)

var kindNames = [NumKinds]string{
	EvStore:             "store",
	EvCommit:            "commit",
	EvLaunch:            "launch",
	EvBackArrive:        "arrive",
	EvWriteback:         "writeback",
	EvWritebackWord:     "wb-word",
	EvDrain:             "drain",
	EvDrainWrite:        "drain-write",
	EvNVMRead:           "nvm-read",
	EvStall:             "stall",
	EvCrash:             "crash",
	EvRecoveryRedoWrite: "rec-redo-write",
	EvRecoveryRedo:      "rec-redo",
	EvRecoveryUndo:      "rec-undo",
	EvRecoveryDone:      "rec-done",
	EvTornWriteback:     "torn-wb",
	EvTornDrainWrite:    "torn-drain",
	EvSync:              "sync",
}

// String returns the kind's wire name (stable: run records serialize it).
func (k Kind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindFromString inverts String; ok is false for unknown names.
func KindFromString(s string) (Kind, bool) {
	for k := Kind(0); k < NumKinds; k++ {
		if kindNames[k] == s {
			return k, true
		}
	}
	return 0, false
}

// Flags annotate an event.
type Flags uint8

// Flag bits.
const (
	FlagMerged    Flags = 1 << iota // store merged into an existing entry
	FlagElided                      // boundary elided (store-free region)
	FlagBoundary                    // entry is a commit marker, not data
	FlagValid                       // redo valid-bit set
	FlagApplied                     // NVM write passed the sequence guard
	FlagWindowHit                   // monitoring window unset the valid-bit
	FlagHalt                        // final marker of a halted thread
	FlagNested                      // crash injected *during* recovery (fault model)
)

var flagNames = []struct {
	bit  Flags
	name string
}{
	{FlagMerged, "merged"},
	{FlagElided, "elided"},
	{FlagBoundary, "boundary"},
	{FlagValid, "valid"},
	{FlagApplied, "applied"},
	{FlagWindowHit, "window-hit"},
	{FlagHalt, "halt"},
	{FlagNested, "nested"},
}

// Has reports whether all bits of q are set.
func (f Flags) Has(q Flags) bool { return f&q == q }

// String renders the set flags as "a|b|c" ("-" when empty).
func (f Flags) String() string {
	if f == 0 {
		return "-"
	}
	s := ""
	for _, fn := range flagNames {
		if f&fn.bit != 0 {
			if s != "" {
				s += "|"
			}
			s += fn.name
		}
	}
	return s
}

// FlagsFromString inverts Flags.String.
func FlagsFromString(s string) Flags {
	var f Flags
	if s == "" || s == "-" {
		return 0
	}
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '|' {
			part := s[start:i]
			for _, fn := range flagNames {
				if fn.name == part {
					f |= fn.bit
				}
			}
			start = i + 1
		}
	}
	return f
}

// Event is one provenance record. Field meaning depends on Kind (see the
// kind constants); unused fields are zero. Events are plain values — the
// machine emits them synchronously at the exact point the modeled hardware
// state mutates, so a Sink observing the stream sees mutations in true
// order.
type Event struct {
	Kind   Kind
	Flags  Flags
	Core   int32
	Cycle  uint64
	Addr   uint64
	Seq    uint64
	Region uint64
	Val    uint64
	Val2   uint64
	Count  uint32
}

// Line returns the cache-line address of the event's word address.
func (e Event) Line() uint64 { return e.Addr &^ 63 }

// HasAddr reports whether the event's Addr field is meaningful.
func (e Event) HasAddr() bool {
	switch e.Kind {
	case EvStore, EvWriteback, EvWritebackWord, EvDrainWrite, EvNVMRead,
		EvRecoveryRedoWrite, EvRecoveryUndo, EvTornWriteback, EvTornDrainWrite,
		EvSync:
		return true
	case EvLaunch, EvBackArrive:
		return !e.Flags.Has(FlagBoundary)
	}
	return false
}

// String renders the event as one grep-friendly line.
func (e Event) String() string {
	s := fmt.Sprintf("%-14s core=%d cycle=%d", e.Kind, e.Core, e.Cycle)
	switch e.Kind {
	case EvStore:
		s += fmt.Sprintf(" addr=%#x seq=%d region=%d redo=%d undo=%d", e.Addr, e.Seq, e.Region, e.Val, e.Val2)
	case EvCommit:
		s += fmt.Sprintf(" region=%d", e.Region)
	case EvLaunch:
		if e.Flags.Has(FlagBoundary) {
			s += fmt.Sprintf(" region=%d depart=%d", e.Region, e.Val)
		} else {
			s += fmt.Sprintf(" addr=%#x seq=%d depart=%d", e.Addr, e.Seq, e.Val)
		}
	case EvBackArrive:
		if e.Flags.Has(FlagBoundary) {
			s += fmt.Sprintf(" region=%d arrives=%d", e.Region, e.Val)
		} else {
			s += fmt.Sprintf(" addr=%#x seq=%d arrives=%d", e.Addr, e.Seq, e.Val)
		}
	case EvWriteback:
		s += fmt.Sprintf(" line=%#x seq=%d", e.Addr, e.Seq)
	case EvWritebackWord:
		s += fmt.Sprintf(" addr=%#x seq=%d val=%d", e.Addr, e.Seq, e.Val)
	case EvDrain:
		s += fmt.Sprintf(" region=%d entries=%d lo=%#x hi=%#x", e.Region, e.Count, e.Val, e.Val2)
	case EvDrainWrite, EvRecoveryRedoWrite:
		s += fmt.Sprintf(" addr=%#x seq=%d region=%d redo=%d", e.Addr, e.Seq, e.Region, e.Val)
	case EvNVMRead:
		s += fmt.Sprintf(" addr=%#x nvmseq=%d nvmval=%d archval=%d", e.Addr, e.Seq, e.Val, e.Val2)
	case EvRecoveryRedo:
		s += fmt.Sprintf(" region=%d", e.Region)
	case EvRecoveryUndo:
		s += fmt.Sprintf(" addr=%#x firstseq=%d undo=%d", e.Addr, e.Seq, e.Val)
	case EvRecoveryDone:
		s += fmt.Sprintf(" cores=%d", e.Count)
	case EvTornWriteback:
		s += fmt.Sprintf(" addr=%#x restored=%d seq=%d torn=%d", e.Addr, e.Val, e.Seq, e.Val2)
	case EvTornDrainWrite:
		s += fmt.Sprintf(" addr=%#x seq=%d region=%d redo=%d", e.Addr, e.Seq, e.Region, e.Val)
	case EvSync:
		s += fmt.Sprintf(" addr=%#x seq=%d region=%d new=%d old=%d", e.Addr, e.Seq, e.Region, e.Val, e.Val2)
	}
	if e.Flags != 0 {
		s += " [" + e.Flags.String() + "]"
	}
	return s
}

// Sink consumes the event stream. Implementations must not retain the
// event past the call (it is a value, so copies are fine).
type Sink interface {
	Tap(Event)
}

// tee forwards each event to first, then to rest.
type tee struct{ first, rest Sink }

func (t *tee) Tap(e Event) {
	t.first.Tap(e)
	t.rest.Tap(e)
}

// discard is the sink of an empty Tee.
type discard struct{}

func (discard) Tap(Event) {}

// Tee returns a Sink forwarding every event to each given sink in order.
// Nil sinks are skipped. Put a FlightRecorder before an Auditor so a
// violation's event chain includes the offending event itself. Fanning out
// to n sinks costs n-1 allocations: one for the usual recorder and auditor
// pair.
func Tee(sinks ...Sink) Sink {
	var out Sink
	for i := len(sinks) - 1; i >= 0; i-- {
		switch s := sinks[i]; {
		case s == nil:
		case out == nil:
			out = s
		default:
			out = &tee{s, out}
		}
	}
	if out == nil {
		return discard{}
	}
	return out
}
