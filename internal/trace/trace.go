// Package trace records persistence-relevant events from a machine run: it
// is the observability layer for debugging region formation and the
// two-phase store pipeline. A Recorder is an audit.Sink that keeps the
// audit events of six kinds — commit, drain, writeback, stall, crash,
// recovery — and drops the per-word events, so a trace is a filtered view
// of the machine's one provenance tap (Machine.SetTap) in the tap's own
// schema. The ordering invariants over that stream (per-core region
// commits are consecutive, drains follow commits, and so on) are judged by
// audit.Auditor, not here.
//
// Recorded traces export two ways: WriteTo renders grep-friendly text lines,
// and WriteChromeTo renders the Chrome trace-event JSON consumed by Perfetto
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

// kinds are the tap kinds a trace keeps, in Summary order.
var kinds = [...]audit.Kind{audit.EvCommit, audit.EvDrain, audit.EvWriteback, audit.EvStall, audit.EvCrash, audit.EvRecoveryDone}

// name returns a kept kind's trace name: the tap's name, except that the
// completed recovery is "recovery".
func name(k audit.Kind) string {
	if k == audit.EvRecoveryDone {
		return "recovery"
	}
	return k.String()
}

// line renders one kept event as a grep-friendly text line. A drain shows
// its lo/hi/count payload (Val/Val2/Count); the recovery line shows the
// recovered core count (Count) where other lines show the core.
func line(e audit.Event) string {
	if e.Kind == audit.EvRecoveryDone {
		return fmt.Sprintf("%-9s core=%d cycle=%d cores", name(e.Kind), e.Count, e.Cycle)
	}
	s := fmt.Sprintf("%-9s core=%d cycle=%d", name(e.Kind), e.Core, e.Cycle)
	switch e.Kind {
	case audit.EvCommit:
		s += fmt.Sprintf(" region=%d", e.Region)
	case audit.EvDrain:
		s += fmt.Sprintf(" region=%d entries=%d", e.Region, e.Count)
		if e.Count > 0 {
			s += fmt.Sprintf(" lo=%#x hi=%#x", e.Val, e.Val2)
		}
	case audit.EvWriteback:
		s += fmt.Sprintf(" addr=%#x", e.Addr)
	}
	return s
}

// Recorder accumulates the kept events of a tap. It is safe for use from a
// single machine (the machine is single-goroutine) but guards against
// accidental concurrent use anyway.
type Recorder struct {
	mu     sync.Mutex
	events []audit.Event
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder {
	return &Recorder{}
}

// Tap makes a Recorder an audit.Sink: it keeps the events of the six trace
// kinds and ignores every other kind.
func (r *Recorder) Tap(e audit.Event) {
	for _, k := range kinds {
		if e.Kind == k {
			r.mu.Lock()
			r.events = append(r.events, e)
			r.mu.Unlock()
			return
		}
	}
}

// Events returns a copy of the recorded events in order.
func (r *Recorder) Events() []audit.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]audit.Event(nil), r.events...)
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// WriteTo dumps the trace as text lines.
func (r *Recorder) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for _, e := range r.Events() {
		m, err := fmt.Fprintln(w, line(e))
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// Summary returns per-kind counts as a one-line string.
func (r *Recorder) Summary() string {
	var counts [audit.NumKinds]int
	for _, e := range r.Events() {
		counts[e.Kind]++
	}
	var parts []string
	for _, k := range kinds {
		if counts[k] > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", name(k), counts[k]))
		}
	}
	if len(parts) == 0 {
		return "(empty trace)"
	}
	return strings.Join(parts, " ")
}
