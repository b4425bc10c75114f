package audit

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"
	"slices"
	"testing"
)

// refRing is the reference flight recorder: a ring of whole 64-byte Event
// structs and a digest hashed one event at a time, the layout the compact
// recorder replaced.
type refRing struct {
	ring  []Event
	next  int
	total uint64
	h     hash.Hash
}

func newRefRing(cap int) *refRing { return &refRing{ring: make([]Event, 0, cap), h: sha256.New()} }

func (r *refRing) Tap(e Event) {
	r.total++
	r.h.Write(appendEventWire(nil, e))
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, e)
		return
	}
	r.ring[r.next] = e
	r.next = (r.next + 1) % len(r.ring)
}

// Events returns the retained events, oldest first.
func (r *refRing) Events() []Event {
	return append(append([]Event{}, r.ring[r.next:]...), r.ring[:r.next]...)
}

func (r *refRing) Dropped() uint64 { return r.total - uint64(len(r.ring)) }

func (r *refRing) Digest() (d [sha256.Size]byte) {
	copy(d[:], r.h.Sum(nil))
	return d
}

// filterEvents returns the events keep accepts, nil when there are none.
func filterEvents(evs []Event, keep func(Event) bool) []Event {
	var out []Event
	for _, e := range evs {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

// inRegionChain reports whether e belongs to core's region chain, as
// ChainForRegion documents it.
func inRegionChain(e Event, core int32, region uint64) bool {
	if e.Core != core || e.Region != region {
		return false
	}
	switch e.Kind {
	case EvStore, EvCommit, EvDrain, EvDrainWrite, EvRecoveryRedo, EvRecoveryRedoWrite:
		return true
	case EvLaunch, EvBackArrive:
		return e.Flags.Has(FlagBoundary)
	}
	return false
}

// maxFuzzTaps bounds a fuzzed stream: every tap is followed by a full
// comparison, so the cost is quadratic in the stream. It is three times
// the second chunk boundary of the smallest records.
const maxFuzzTaps = 1200

// fuzzStream decodes fuzz bytes into a ring capacity and an event stream.
// The first byte picks the capacity from caps. Then each op is a mask
// byte: 0 taps the previous event again n+1 times (n the next byte), with
// the sequence and cycle stepping up, as a machine's stream does; any
// other mask builds the next event from the previous one, drawing the
// fields its bits name (kind and flags, core, cycle, address, sequence,
// region, the two values, count) with pick.
func fuzzStream(b []byte, caps []int) (int, []Event) {
	if len(b) == 0 {
		return caps[0], nil
	}
	capacity := caps[int(b[0])%len(caps)]
	b = b[1:]
	byteAt := func() byte {
		if len(b) == 0 {
			return 0
		}
		v := b[0]
		b = b[1:]
		return v
	}
	// pick draws a field value from a selector byte: 0, MaxUint64, the
	// previous value plus a small delta of either sign, or 8 raw bytes.
	pick := func(prev uint64) uint64 {
		s := byteAt()
		switch s & 3 {
		case 0:
			return 0
		case 1:
			return math.MaxUint64
		case 2:
			return prev + uint64(int64(int8(s))>>2)
		}
		if len(b) < 8 {
			return uint64(s)
		}
		v := binary.LittleEndian.Uint64(b)
		b = b[8:]
		return v
	}
	var evs []Event
	var e Event
	for len(b) > 0 && len(evs) < maxFuzzTaps {
		m := byteAt()
		if m == 0 {
			for n := int(byteAt()); n >= 0 && len(evs) < maxFuzzTaps; n-- {
				e.Seq++
				e.Cycle += uint64(n & 3)
				evs = append(evs, e)
			}
			continue
		}
		if m&1 != 0 {
			e.Kind, e.Flags = Kind(byteAt()%byte(NumKinds)), Flags(byteAt())
		}
		if m&2 != 0 {
			e.Core = int32(pick(uint64(e.Core)))
		}
		for i, f := range []*uint64{&e.Cycle, &e.Addr, &e.Seq, &e.Region} {
			if m&(4<<i) != 0 {
				*f = pick(*f)
			}
		}
		if m&64 != 0 {
			e.Val, e.Val2 = pick(e.Val), pick(e.Val2)
		}
		if m&128 != 0 {
			e.Count = uint32(pick(uint64(e.Count)))
		}
		evs = append(evs, e)
	}
	return capacity, evs
}

// repeatOp is a fuzz op tapping the previous event n+1 more times.
func repeatOp(n byte) []byte { return []byte{0, n} }

// eventOp is a fuzz op setting every field of the next event: the kind and
// flags, then each of the other eight picks from selector sel, followed by
// raw when sel takes raw bytes.
func eventOp(k Kind, flags Flags, sel byte, raw uint64) []byte {
	b := []byte{0xff, byte(k), byte(flags)}
	for range 8 {
		b = append(b, sel)
		if sel&3 == 3 {
			b = binary.LittleEndian.AppendUint64(b, raw)
		}
	}
	return b
}

// FuzzFlightRecorderDifferential runs every stream through the flight
// recorder and through refRing, and after every tap compares all that the
// recorder answers: Events, ChainFor the event's line, ChainForRegion the
// event's core and region, KindCounts, Total, Dropped and Digest.
func FuzzFlightRecorderDifferential(f *testing.F) {
	// The smallest rings, the caps at the first two chunk boundaries, and
	// the default.
	caps := append([]int{1, 2, 3}, append(chunkBoundaryCaps(), DefaultRecorderCap)...)
	// Zero, MaxUint64, a delta of 0, -1, +31 and -32 from the previous
	// value, and raw values with the top bit set and clear.
	var extremes []byte
	for i, sel := range []byte{0, 1, 2, 0xfe, 0x7e, 0x82, 3, 3} {
		extremes = append(extremes, eventOp(Kind(i)%NumKinds, Flags(i), sel, 1<<63|uint64(i)<<40)...)
	}
	for i := range caps {
		plain, mixed := []byte{byte(i)}, []byte{byte(i)}
		for range 4 {
			plain = append(plain, repeatOp(255)...)
			mixed = append(mixed, repeatOp(255)...)
			mixed = append(mixed, extremes...)
		}
		f.Add(plain)
		f.Add(mixed)
		f.Add(append([]byte{byte(i)}, extremes...))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		capacity, evs := fuzzStream(b, caps)
		rec, ref := NewFlightRecorder(capacity), newRefRing(capacity)
		for i, e := range evs {
			rec.Tap(e)
			ref.Tap(e)
			evs := ref.Events()
			if got := rec.Events(); !slices.Equal(got, evs) {
				t.Fatalf("cap %d, tap %d: Events differ:\n got %v\nwant %v", capacity, i, got, evs)
			}
			line := e.Addr &^ 63
			onLine := func(x Event) bool { return eventTouchesLine(x, line) }
			if got, want := rec.ChainFor(line), filterEvents(evs, onLine); !slices.Equal(got, want) {
				t.Fatalf("cap %d, tap %d: ChainFor(%#x) differs:\n got %v\nwant %v", capacity, i, line, got, want)
			}
			inRegion := func(x Event) bool { return inRegionChain(x, e.Core, e.Region) }
			if got, want := rec.ChainForRegion(e.Core, e.Region), filterEvents(evs, inRegion); !slices.Equal(got, want) {
				t.Fatalf("cap %d, tap %d: ChainForRegion(%d, %d) differs:\n got %v\nwant %v", capacity, i, e.Core, e.Region, got, want)
			}
			var kinds [NumKinds]uint64
			for _, x := range evs {
				kinds[x.Kind]++
			}
			if got := rec.KindCounts(); got != kinds {
				t.Fatalf("cap %d, tap %d: KindCounts %v, want %v", capacity, i, got, kinds)
			}
			if rec.Total() != ref.total || rec.Dropped() != ref.Dropped() {
				t.Fatalf("cap %d, tap %d: total %d dropped %d, want %d and %d", capacity, i, rec.Total(), rec.Dropped(), ref.total, ref.Dropped())
			}
			if rec.Digest() != ref.Digest() {
				t.Fatalf("cap %d, tap %d: digests differ", capacity, i)
			}
		}
	})
}
