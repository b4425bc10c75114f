// Package trace records persistence-relevant events from a machine run: it
// is the observability layer for debugging region formation and the
// two-phase store pipeline. A Recorder is an audit.Sink, so a trace is a
// view of the machine's one provenance tap (Machine.SetTap) that keeps six
// kinds — commit, drain, writeback, stall, crash, recovery — and drops the
// per-word events. It is also the data source for the event-level tests
// that assert ordering invariants (per-core region commits are monotone,
// drains follow commits, and so on — see CheckRegionOrder, which is also
// crash-aware: traces spanning a power failure and recovery check the
// re-commit rules of elided boundaries).
//
// Recorded traces export two ways: WriteTo renders grep-friendly text lines,
// and WriteChrome renders the Chrome trace-event JSON consumed by Perfetto
// and chrome://tracing (`caprisim -trace-out trace.json`), with region
// commit→drain lifetimes as per-core async spans.
package trace

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"capri/internal/audit"
)

// Kind classifies an event.
type Kind uint8

// Event kinds.
const (
	KindRegionCommit Kind = iota // a boundary committed (marker entered the NV front-end)
	KindPhase2Drain              // a region's redo data finished draining to NVM
	KindWriteback                // a dirty line reached the memory controller
	KindFrontStall               // the core stalled on a full front-end proxy
	KindCrash                    // power failure injected
	KindRecovery                 // recovery protocol completed
)

var kindNames = [...]string{
	KindRegionCommit: "commit",
	KindPhase2Drain:  "drain",
	KindWriteback:    "writeback",
	KindFrontStall:   "stall",
	KindCrash:        "crash",
	KindRecovery:     "recovery",
}

// String returns the event-kind name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one recorded occurrence.
type Event struct {
	Kind   Kind
	Core   int
	Cycle  uint64
	Region uint64 // for commit/drain events
	Addr   uint64 // for writeback events; drain events: lowest drained address
	Addr2  uint64 // for drain events: highest drained address
	Count  int    // for drain events: valid redo entries written
	Note   string
}

// String renders the event in a grep-friendly line format.
func (e Event) String() string {
	switch e.Kind {
	case KindRegionCommit:
		return fmt.Sprintf("%-9s core=%d cycle=%d region=%d", e.Kind, e.Core, e.Cycle, e.Region)
	case KindPhase2Drain:
		s := fmt.Sprintf("%-9s core=%d cycle=%d region=%d entries=%d", e.Kind, e.Core, e.Cycle, e.Region, e.Count)
		if e.Count > 0 {
			s += fmt.Sprintf(" lo=%#x hi=%#x", e.Addr, e.Addr2)
		}
		return s
	case KindWriteback:
		return fmt.Sprintf("%-9s core=%d cycle=%d addr=%#x", e.Kind, e.Core, e.Cycle, e.Addr)
	default:
		s := fmt.Sprintf("%-9s core=%d cycle=%d", e.Kind, e.Core, e.Cycle)
		if e.Note != "" {
			s += " " + e.Note
		}
		return s
	}
}

// Recorder accumulates events. It is safe for use from a single machine
// (the machine is single-goroutine) but guards against accidental
// concurrent use anyway.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder {
	return &Recorder{}
}

// Record appends an event.
func (r *Recorder) Record(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, e)
}

// Tap makes a Recorder an audit.Sink: it records the provenance events a
// trace shows and ignores every other kind. A drain's lo/hi/count payload
// comes from Val/Val2/Count; a recovery event carries the recovered core
// count in Core.
func (r *Recorder) Tap(e audit.Event) {
	ev := Event{Core: int(e.Core), Cycle: e.Cycle}
	switch e.Kind {
	case audit.EvCommit:
		ev.Kind, ev.Region = KindRegionCommit, e.Region
	case audit.EvDrain:
		ev.Kind, ev.Region = KindPhase2Drain, e.Region
		ev.Addr, ev.Addr2, ev.Count = e.Val, e.Val2, int(e.Count)
	case audit.EvWriteback:
		ev.Kind, ev.Addr = KindWriteback, e.Addr
	case audit.EvStall:
		ev.Kind = KindFrontStall
	case audit.EvCrash:
		ev.Kind = KindCrash
	case audit.EvRecoveryDone:
		ev = Event{Kind: KindRecovery, Core: int(e.Count), Note: "cores"}
	default:
		return
	}
	r.Record(ev)
}

// Events returns a copy of the recorded events in order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Filter returns the events of one kind, in order.
func (r *Recorder) Filter(k Kind) []Event {
	var out []Event
	for _, e := range r.Events() {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// WriteTo dumps the trace as text lines.
func (r *Recorder) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for _, e := range r.Events() {
		m, err := fmt.Fprintln(w, e.String())
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// Summary returns per-kind counts as a one-line string.
func (r *Recorder) Summary() string {
	counts := map[Kind]int{}
	for _, e := range r.Events() {
		counts[e.Kind]++
	}
	var parts []string
	for k := KindRegionCommit; k <= KindRecovery; k++ {
		if counts[k] > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", k, counts[k]))
		}
	}
	if len(parts) == 0 {
		return "(empty trace)"
	}
	return strings.Join(parts, " ")
}

// CheckRegionOrder verifies the in-order-persistence invariant over the
// trace: for each core, commit events carry strictly increasing region
// sequence numbers, and every drain's region was committed earlier in the
// trace. The check is crash-aware: a KindCrash event resets each core's
// commit watermark to its last drained region, because commits above the
// drain watermark may not have left a durable marker (elided store-free
// boundaries never do), so after recovery those region numbers legitimately
// commit again — while drained regions are durable and must never recommit.
// Returns a descriptive error on the first violation.
func CheckRegionOrder(events []Event) error {
	lastCommit := map[int]uint64{}
	committed := map[int]map[uint64]bool{}
	lastDrain := map[int]uint64{}
	for i, e := range events {
		switch e.Kind {
		case KindCrash:
			for core := range lastCommit {
				if d, ok := lastDrain[core]; ok {
					lastCommit[core] = d
				} else {
					delete(lastCommit, core)
				}
			}
		case KindRegionCommit:
			if prev, ok := lastCommit[e.Core]; ok && e.Region <= prev {
				return fmt.Errorf("event %d: core %d commit region %d after %d", i, e.Core, e.Region, prev)
			}
			lastCommit[e.Core] = e.Region
			if committed[e.Core] == nil {
				committed[e.Core] = map[uint64]bool{}
			}
			committed[e.Core][e.Region] = true
		case KindPhase2Drain:
			if !committed[e.Core][e.Region] {
				return fmt.Errorf("event %d: core %d drained region %d before its commit", i, e.Core, e.Region)
			}
			if prev, ok := lastDrain[e.Core]; ok && e.Region <= prev {
				return fmt.Errorf("event %d: core %d drain region %d after %d (out of region order)", i, e.Core, e.Region, prev)
			}
			lastDrain[e.Core] = e.Region
		}
	}
	return nil
}
