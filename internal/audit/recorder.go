package audit

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
)

// DefaultRecorderCap is the default flight-recorder ring capacity: the
// recorder keeps at most this many events (about 1 MB at the typical 15
// bytes an encoded event takes). It is a cap, not a reservation — the ring
// grows in chunks with its run.
const DefaultRecorderCap = 1 << 16

// The ring is a sequence of byte chunks holding delta-encoded records. The
// first two chunks, recorderChunkMin bytes each, live in the recorder
// itself, so a small ring wraps without allocating; each later one is
// recorderGrowth times the bytes the ring holds so far, up to
// recorderChunkMax.
const (
	recorderChunkMin = 2 << 10
	recorderChunkMax = 256 << 10
	recorderGrowth   = 4
)

// eventWireLen is the size of one event's digest encoding: kind and flags,
// the core, the cycle, address, sequence, region and two value words, then
// the count.
const eventWireLen = 2 + 4 + 6*8 + 4

// digestBatch is how many wire encodings the recorder gathers before
// hashing them in one write: 32 of them fill 29 sha256 blocks exactly.
const digestBatch = 32

// maxRecordLen bounds one ring record: kind and flags, the core as a
// uvarint of its 32 bits, four zigzag deltas and two values as uvarints of
// 64 bits, and the count as a uvarint of 32.
const maxRecordLen = 2 + binary.MaxVarintLen32 + 6*binary.MaxVarintLen64 + binary.MaxVarintLen32

// recChunk is one ring chunk: n records encoded back to back in buf, the
// first one against a zero base, so the chunk decodes on its own.
type recChunk struct {
	buf []byte
	n   int
}

// FlightRecorder keeps the last N provenance events in a ring and a running
// digest over *all* events seen (dropped ones included), so two runs can be
// compared for event-stream identity even when the ring wrapped. It answers
// the debugging question aggregate counters cannot: "what happened to this
// cache line?"
type FlightRecorder struct {
	// chunks is the ring, oldest first; records are appended to the last
	// chunk. Once that chunk is full, the oldest is recycled as the next
	// one if the others, with the record about to be written, still hold
	// cap events, and a new chunk is made otherwise. So the chunks hold
	// between cap and cap plus one chunk of events; the oldest surplus is
	// the part of the stream already evicted. dir backs chunks inline (a
	// full default ring of 15-byte records has eight); inline backs the first
	// chunk and spare, the second until it is taken.
	chunks []recChunk
	dir    [16]recChunk
	inline [2][recorderChunkMin]byte
	spare  []byte
	held   int // records in the chunks
	size   int // bytes the chunks and spare can hold
	// base is the delta base of the last chunk: the cycle, address,
	// sequence and region of its last record.
	base  [4]uint64
	cap   int    // ring capacity in events
	total uint64 // events seen, including those evicted from the ring
	h     hash.Hash
	// wire holds the digest encodings of the last nwire events not yet
	// hashed; Digest flushes it.
	wire  [digestBatch * eventWireLen]byte
	nwire int
}

// NewFlightRecorder returns a recorder holding the last `cap` events
// (DefaultRecorderCap when cap <= 0). Its first few KB of event storage are
// part of the recorder; the ring allocates more only as its run grows.
func NewFlightRecorder(cap int) *FlightRecorder {
	if cap <= 0 {
		cap = DefaultRecorderCap
	}
	r := &FlightRecorder{cap: cap, h: sha256.New(), size: 2 * recorderChunkMin}
	r.dir[0].buf = r.inline[0][:0]
	r.spare = r.inline[1][:0]
	r.chunks = r.dir[:1]
	return r
}

// Tap records the event.
func (r *FlightRecorder) Tap(e Event) {
	r.total++
	putEventWire((*[eventWireLen]byte)(r.wire[r.nwire:]), e)
	if r.nwire += eventWireLen; r.nwire == len(r.wire) {
		r.h.Write(r.wire[:])
		r.nwire = 0
	}
	c := &r.chunks[len(r.chunks)-1]
	if cap(c.buf)-len(c.buf) < maxRecordLen {
		c = r.nextChunk()
	}
	c.buf = r.appendRecord(c.buf, e)
	c.n++
	r.held++
}

// nextChunk starts a new last chunk, recycling the oldest when the others
// and the record about to be written hold the ring's capacity, and resets
// the delta base.
func (r *FlightRecorder) nextChunk() *recChunk {
	r.base = [4]uint64{}
	last := len(r.chunks) - 1
	if old := r.chunks[0]; last > 0 && r.held-old.n+1 >= r.cap {
		copy(r.chunks, r.chunks[1:])
		r.held -= old.n
		r.chunks[last] = recChunk{buf: old.buf[:0]}
		return &r.chunks[last]
	}
	buf := r.spare
	if r.spare = nil; buf == nil {
		n := min(recorderChunkMax, recorderGrowth*r.size)
		r.size += n
		buf = make([]byte, 0, n)
	}
	r.chunks = append(r.chunks, recChunk{buf: buf})
	return &r.chunks[last+1]
}

// appendRecord appends e's ring record to b, which has room for it, and
// advances the delta base.
func (r *FlightRecorder) appendRecord(b []byte, e Event) []byte {
	b = append(b, byte(e.Kind), byte(e.Flags))
	b = binary.AppendUvarint(b, uint64(uint32(e.Core)))
	b = binary.AppendUvarint(b, zigzag(e.Cycle-r.base[0]))
	b = binary.AppendUvarint(b, zigzag(e.Addr-r.base[1]))
	b = binary.AppendUvarint(b, zigzag(e.Seq-r.base[2]))
	b = binary.AppendUvarint(b, zigzag(e.Region-r.base[3]))
	b = binary.AppendUvarint(b, e.Val)
	b = binary.AppendUvarint(b, e.Val2)
	r.base = [4]uint64{e.Cycle, e.Addr, e.Seq, e.Region}
	return binary.AppendUvarint(b, uint64(e.Count))
}

// zigzag maps a wrapping difference to a uvarint that is short when the
// difference is small of either sign.
func zigzag(d uint64) uint64 { return d<<1 ^ uint64(int64(d)>>63) }

// unzigzag inverts zigzag.
func unzigzag(z uint64) uint64 { return z>>1 ^ -(z & 1) }

// decodeChunk appends c's records, less the first skip, to out.
func decodeChunk(out []Event, c recChunk, skip int) []Event {
	var base [4]uint64
	b := c.buf
	next := func() uint64 {
		v, n := binary.Uvarint(b)
		b = b[n:]
		return v
	}
	for i := 0; i < c.n; i++ {
		e := Event{Kind: Kind(b[0]), Flags: Flags(b[1])}
		b = b[2:]
		e.Core = int32(uint32(next()))
		for j := range base {
			base[j] += unzigzag(next())
		}
		e.Cycle, e.Addr, e.Seq, e.Region = base[0], base[1], base[2], base[3]
		e.Val = next()
		e.Val2 = next()
		e.Count = uint32(next())
		if i >= skip {
			out = append(out, e)
		}
	}
	return out
}

// putEventWire writes e's digest encoding to b.
func putEventWire(b *[eventWireLen]byte, e Event) {
	le := binary.LittleEndian
	b[0], b[1] = byte(e.Kind), byte(e.Flags)
	le.PutUint32(b[2:], uint32(e.Core))
	le.PutUint64(b[6:], e.Cycle)
	le.PutUint64(b[14:], e.Addr)
	le.PutUint64(b[22:], e.Seq)
	le.PutUint64(b[30:], e.Region)
	le.PutUint64(b[38:], e.Val)
	le.PutUint64(b[46:], e.Val2)
	le.PutUint32(b[54:], e.Count)
}

// retained returns the number of events in the ring.
func (r *FlightRecorder) retained() int { return int(min(r.total, uint64(r.cap))) }

// Total returns the number of events seen (including evicted ones).
func (r *FlightRecorder) Total() uint64 { return r.total }

// Dropped returns how many events fell off the ring.
func (r *FlightRecorder) Dropped() uint64 { return r.total - uint64(r.retained()) }

// Digest returns the sha256 over every event seen so far, in order. Two
// deterministic runs of the same program and config produce identical
// digests; any divergence in the event stream changes it.
func (r *FlightRecorder) Digest() [sha256.Size]byte {
	r.h.Write(r.wire[:r.nwire])
	r.nwire = 0
	// Sum into the batch buffer: a local array would escape through the
	// hash.Hash interface and cost an allocation.
	var d [sha256.Size]byte
	copy(d[:], r.h.Sum(r.wire[:0]))
	return d
}

// Events returns the retained events, oldest first.
func (r *FlightRecorder) Events() []Event {
	out := make([]Event, 0, r.retained())
	skip := r.held - r.retained()
	for _, c := range r.chunks {
		if skip >= c.n {
			skip -= c.n
			continue
		}
		out = decodeChunk(out, c, skip)
		skip = 0
	}
	return out
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
