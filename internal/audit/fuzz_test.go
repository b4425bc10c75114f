package audit

import (
	"encoding/binary"
	"testing"
)

// decodeWire turns fuzz bytes into auditor options and an event stream. The
// first byte picks the options (bit 0: monitoring windows, the rest: the
// proxy latency; the core count is always testCores); every following
// eventWireLen-byte chunk is one event in the flight recorder's digest
// encoding. A short tail is ignored.
func decodeWire(b []byte) (Options, []Event) {
	if len(b) == 0 {
		return Options{}, nil
	}
	opt := Options{Windows: b[0]&1 != 0, ProxyLatency: uint64(b[0] >> 1), Cores: testCores}
	var evs []Event
	le := binary.LittleEndian
	for b = b[1:]; len(b) >= eventWireLen; b = b[eventWireLen:] {
		evs = append(evs, Event{
			Kind: Kind(b[0]), Flags: Flags(b[1]), Core: int32(le.Uint32(b[2:])),
			Cycle: le.Uint64(b[6:]), Addr: le.Uint64(b[14:]), Seq: le.Uint64(b[22:]),
			Region: le.Uint64(b[30:]), Val: le.Uint64(b[38:]), Val2: le.Uint64(b[46:]),
			Count: le.Uint32(b[54:]),
		})
	}
	return opt, evs
}

// appendEventWire appends e's eventWireLen-byte digest encoding to b.
func appendEventWire(b []byte, e Event) []byte {
	var w [eventWireLen]byte
	putEventWire(&w, e)
	return append(b, w[:]...)
}

// encodeWire inverts decodeWire.
func encodeWire(opt Options, evs []Event) []byte {
	b := []byte{byte(opt.ProxyLatency << 1)}
	if opt.Windows {
		b[0] |= 1
	}
	for _, e := range evs {
		b = appendEventWire(b, e)
	}
	return b
}

func TestWireRoundTrip(t *testing.T) {
	evs := legalStoreLife()
	evs[0].Core, evs[0].Count = -3, 1<<31
	opt, back := decodeWire(encodeWire(testOpts(), evs))
	if opt != testOpts() || len(back) != len(evs) {
		t.Fatalf("round trip gave %+v and %d events", opt, len(back))
	}
	for i := range evs {
		if back[i] != evs[i] {
			t.Fatalf("event %d: got %+v want %+v", i, back[i], evs[i])
		}
	}
}

// FuzzAuditorTap feeds arbitrary event streams (any kind, flags and core
// value) through a recorder and an auditor. Tap must never panic, every
// event must be audited, and the violation count must equal the retained
// violations plus the ones dropped past the retention cap. The seed corpus
// in testdata/fuzz holds the rule and mutation streams of this package's
// tests.
func FuzzAuditorTap(f *testing.F) {
	f.Add(encodeWire(testOpts(), legalStoreLife()))
	f.Fuzz(func(t *testing.T, b []byte) {
		opt, evs := decodeWire(b)
		rec := NewFlightRecorder(64)
		aud := NewAuditor(opt)
		aud.AttachRecorder(rec)
		sink := Tee(rec, aud)
		for _, e := range evs {
			sink.Tap(e)
		}
		if aud.EventsAudited() != uint64(len(evs)) {
			t.Fatalf("audited %d of %d events", aud.EventsAudited(), len(evs))
		}
		kept := uint64(len(aud.Violations()))
		if total := aud.ViolationCount(); kept != min(total, maxKeptViolations) {
			t.Fatalf("%d violations counted, %d retained (cap %d)", total, kept, maxKeptViolations)
		}
		for _, v := range aud.Violations() {
			if v.Rule == "" || v.Index >= uint64(len(evs)) || v.Event != evs[v.Index] {
				t.Fatalf("violation %q anchored to event %d (%s) of %d", v.Rule, v.Index, v.Event, len(evs))
			}
		}
		if (aud.Err() == nil) != (kept == 0) {
			t.Fatalf("Err() = %v with %d violations", aud.Err(), kept)
		}
	})
}
