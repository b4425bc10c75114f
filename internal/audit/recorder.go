package audit

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
)

// DefaultRecorderCap is the default flight-recorder ring capacity: the
// recorder keeps at most this many events (at 64 bytes per event, a 4 MB
// cap). It is a cap, not a reservation — the ring grows in chunks with its
// run, so a run of n events holds about n×64 bytes.
const DefaultRecorderCap = 1 << 16

// The ring is built of fixed chunks of recorderChunk events (512 KB),
// allocated on first use; a recorder whose cap is not a multiple of the
// chunk gets a short last chunk.
const (
	recorderChunkShift = 13
	recorderChunk      = 1 << recorderChunkShift
	recorderChunkMask  = recorderChunk - 1
)

// eventWireLen is the size of one event's digest encoding: kind and flags,
// the core, the cycle, address, sequence, region and two value words, then
// the count.
const eventWireLen = 2 + 4 + 6*8 + 4

// FlightRecorder keeps the last N provenance events in a ring and a running
// digest over *all* events seen (dropped ones included), so two runs can be
// compared for event-stream identity even when the ring wrapped. It answers
// the debugging question aggregate counters cannot: "what happened to this
// cache line?"
type FlightRecorder struct {
	// chunks is the ring: position i is chunks[i>>recorderChunkShift]
	// [i&recorderChunkMask]. The ring fills from position 0, so its chunks
	// are allocated in order and all exist before it first wraps. dir backs
	// chunks inline up to DefaultRecorderCap.
	chunks [][]Event
	dir    [DefaultRecorderCap / recorderChunk][]Event
	cap    int    // ring capacity in events
	next   int    // ring write position
	total  uint64 // events seen, including those evicted from the ring
	h      hash.Hash
	buf    [eventWireLen]byte // event wire encoding and digest scratch
}

// NewFlightRecorder returns a recorder holding the last `cap` events
// (DefaultRecorderCap when cap <= 0). No event storage is allocated until
// the first event.
func NewFlightRecorder(cap int) *FlightRecorder {
	if cap <= 0 {
		cap = DefaultRecorderCap
	}
	r := &FlightRecorder{cap: cap, h: sha256.New()}
	r.chunks = r.dir[:0]
	return r
}

// Tap records the event.
func (r *FlightRecorder) Tap(e Event) {
	r.total++
	r.h.Write(appendEventWire(r.buf[:0], e))
	c := r.next >> recorderChunkShift
	if c == len(r.chunks) {
		r.chunks = append(r.chunks, make([]Event, min(recorderChunk, r.cap-r.next)))
	}
	r.chunks[c][r.next&recorderChunkMask] = e
	if r.next++; r.next == r.cap {
		r.next = 0
	}
}

// retained returns the number of events in the ring.
func (r *FlightRecorder) retained() int { return int(min(r.total, uint64(r.cap))) }

// appendRange appends ring positions [from, to) to out.
func (r *FlightRecorder) appendRange(out []Event, from, to int) []Event {
	for from < to {
		ch := r.chunks[from>>recorderChunkShift]
		off := from & recorderChunkMask
		n := min(to-from, len(ch)-off)
		out = append(out, ch[off:off+n]...)
		from += n
	}
	return out
}

// appendEventWire appends e's eventWireLen-byte digest encoding to b.
func appendEventWire(b []byte, e Event) []byte {
	b = append(b, byte(e.Kind), byte(e.Flags))
	b = binary.LittleEndian.AppendUint32(b, uint32(e.Core))
	b = binary.LittleEndian.AppendUint64(b, e.Cycle)
	b = binary.LittleEndian.AppendUint64(b, e.Addr)
	b = binary.LittleEndian.AppendUint64(b, e.Seq)
	b = binary.LittleEndian.AppendUint64(b, e.Region)
	b = binary.LittleEndian.AppendUint64(b, e.Val)
	b = binary.LittleEndian.AppendUint64(b, e.Val2)
	return binary.LittleEndian.AppendUint32(b, e.Count)
}

// Total returns the number of events seen (including evicted ones).
func (r *FlightRecorder) Total() uint64 { return r.total }

// Dropped returns how many events fell off the ring.
func (r *FlightRecorder) Dropped() uint64 { return r.total - uint64(r.retained()) }

// Digest returns the sha256 over every event seen so far, in order. Two
// deterministic runs of the same program and config produce identical
// digests; any divergence in the event stream changes it.
func (r *FlightRecorder) Digest() [sha256.Size]byte {
	// Sum into the scratch buffer: a local array would escape through the
	// hash.Hash interface and cost an allocation.
	var d [sha256.Size]byte
	copy(d[:], r.h.Sum(r.buf[:0]))
	return d
}

// Events returns the retained events, oldest first.
func (r *FlightRecorder) Events() []Event {
	n := r.retained()
	out := make([]Event, 0, n)
	if n == r.cap {
		out = r.appendRange(out, r.next, r.cap)
	}
	return r.appendRange(out, 0, r.next)
}

// ChainFor returns the retained events touching the given cache line,
// oldest first: every address-carrying event on the line, plus region-level
// drains whose address range covers it.
func (r *FlightRecorder) ChainFor(line uint64) []Event {
	line &^= 63
	var out []Event
	for _, e := range r.Events() {
		if eventTouchesLine(e, line) {
			out = append(out, e)
		}
	}
	return out
}

// ChainForRegion returns the retained events of one core's region: its
// stores, commit, marker launch/arrival, drain and drain writes, and
// recovery replays.
func (r *FlightRecorder) ChainForRegion(core int32, region uint64) []Event {
	var out []Event
	for _, e := range r.Events() {
		if e.Core != core {
			continue
		}
		switch e.Kind {
		case EvStore, EvCommit, EvDrain, EvDrainWrite, EvRecoveryRedo, EvRecoveryRedoWrite:
			if e.Region == region {
				out = append(out, e)
			}
		case EvLaunch, EvBackArrive:
			if e.Flags.Has(FlagBoundary) && e.Region == region {
				out = append(out, e)
			}
		}
	}
	return out
}

// KindCounts returns per-kind totals over the retained events.
func (r *FlightRecorder) KindCounts() [NumKinds]uint64 {
	var n [NumKinds]uint64
	for _, e := range r.Events() {
		n[e.Kind]++
	}
	return n
}

func eventTouchesLine(e Event, line uint64) bool {
	if e.HasAddr() {
		return e.Line() == line
	}
	if e.Kind == EvDrain && e.Count > 0 {
		return e.Val&^63 <= line && line <= e.Val2&^63
	}
	return false
}
