package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"capri/internal/audit"
)

// Chrome trace-event export: renders a recorded trace in the Trace Event
// Format consumed by Perfetto (https://ui.perfetto.dev) and chrome://tracing.
// One "microsecond" on the timeline is one simulated cycle. A recovered
// machine's clock restarts at 0, so every event after a crash is shifted by
// the crash's timestamp (nested crashes included), and the recovery instant
// sits at its crash's timestamp: the recovered run is drawn after the crashed
// one, not over it.
//
// The mapping:
//
//   - Each core becomes a named thread ("core N") of process 0.
//   - A region's persistence lifetime — boundary commit to phase-2 drain
//     completion — becomes an async span ("b"/"e" pair, category "region"),
//     so in-flight regions stack visually per core.
//   - Writebacks and front-end stalls become thread-scoped instant events.
//   - Crash and recovery become global instant events.
//
// Output is deterministic for a given event slice: one JSON object per line,
// fields in fixed order, map-free.

// chromeEvent is one entry of the traceEvents array. Field order here is the
// serialization order (encoding/json respects struct order), which keeps
// golden tests byte-stable.
type chromeEvent struct {
	Name  string      `json:"name"`
	Cat   string      `json:"cat,omitempty"`
	Phase string      `json:"ph"`
	TS    uint64      `json:"ts"`
	PID   int         `json:"pid"`
	TID   int         `json:"tid"`
	ID    string      `json:"id,omitempty"`
	Scope string      `json:"s,omitempty"`
	Args  *chromeArgs `json:"args,omitempty"`
}

// chromeArgs carries the per-event payload (a struct, not a map, for stable
// key order).
type chromeArgs struct {
	Name    string `json:"name,omitempty"`    // thread_name metadata
	Region  uint64 `json:"region,omitempty"`  // commit/drain spans
	Addr    string `json:"addr,omitempty"`    // writebacks; drain range low
	Addr2   string `json:"addr2,omitempty"`   // drain range high
	Entries uint32 `json:"entries,omitempty"` // drain: valid redo entries written
	Cores   uint32 `json:"cores,omitempty"`   // recovery
}

// WriteChrome writes events as a Chrome trace-event JSON document. The
// timeline unit is one simulated cycle per microsecond. Load the file in
// Perfetto or chrome://tracing.
func WriteChrome(w io.Writer, events []audit.Event) error {
	if _, err := io.WriteString(w, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(ce chromeEvent) error {
		b, err := json.Marshal(ce)
		if err != nil {
			return err
		}
		sep := ",\n"
		if first {
			sep = ""
			first = false
		}
		_, err = fmt.Fprintf(w, "%s%s", sep, b)
		return err
	}

	// Thread-name metadata for every core that appears, in first-appearance
	// order (deterministic: the event slice is deterministic).
	seen := map[int32]bool{}
	for _, e := range events {
		if e.Kind == audit.EvCrash || e.Kind == audit.EvRecoveryDone || seen[e.Core] {
			continue
		}
		seen[e.Core] = true
		if err := emit(chromeEvent{
			Name:  "thread_name",
			Phase: "M",
			PID:   0,
			TID:   int(e.Core),
			Args:  &chromeArgs{Name: fmt.Sprintf("core %d", e.Core)},
		}); err != nil {
			return err
		}
	}

	var base uint64 // timestamp of the latest crash
	for _, e := range events {
		var ce chromeEvent
		ts := base + e.Cycle
		switch e.Kind {
		case audit.EvCommit:
			ce = chromeEvent{
				Name: "region", Cat: "region", Phase: "b",
				TS: ts, TID: int(e.Core),
				ID:   fmt.Sprintf("c%d-r%d", e.Core, e.Region),
				Args: &chromeArgs{Region: e.Region},
			}
		case audit.EvDrain:
			ce = chromeEvent{
				Name: "region", Cat: "region", Phase: "e",
				TS: ts, TID: int(e.Core),
				ID: fmt.Sprintf("c%d-r%d", e.Core, e.Region),
			}
			if e.Count > 0 {
				ce.Args = &chromeArgs{
					Addr:    fmt.Sprintf("%#x", e.Val),
					Addr2:   fmt.Sprintf("%#x", e.Val2),
					Entries: e.Count,
				}
			}
		case audit.EvWriteback:
			ce = chromeEvent{
				Name: "writeback", Cat: "mem", Phase: "i",
				TS: ts, TID: int(e.Core), Scope: "t",
				Args: &chromeArgs{Addr: fmt.Sprintf("%#x", e.Addr)},
			}
		case audit.EvStall:
			ce = chromeEvent{
				Name: "front-stall", Cat: "proxy", Phase: "i",
				TS: ts, TID: int(e.Core), Scope: "t",
			}
		case audit.EvCrash:
			base = ts
			ce = chromeEvent{
				Name: "crash", Cat: "power", Phase: "i",
				TS: ts, Scope: "g",
			}
		case audit.EvRecoveryDone:
			ce = chromeEvent{
				Name: "recovery", Cat: "power", Phase: "i",
				TS: base, Scope: "g",
				Args: &chromeArgs{Cores: e.Count},
			}
		default:
			continue
		}
		if err := emit(ce); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}

// WriteChromeTo renders the recorder's events with WriteChrome.
func (r *Recorder) WriteChromeTo(w io.Writer) error {
	return WriteChrome(w, r.Events())
}
