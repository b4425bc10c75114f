package audit

import (
	"encoding/json"
	"fmt"
	"os"
)

// RecordSchema identifies the run-record JSON format.
const RecordSchema = "capri/run-record/v1"

// RecordEvent is the JSON form of one Event. Kinds and flags serialize as
// their stable wire names so records stay readable and diffable.
type RecordEvent struct {
	Kind   string `json:"k"`
	Flags  string `json:"f,omitempty"`
	Core   int32  `json:"core"`
	Cycle  uint64 `json:"cycle"`
	Addr   uint64 `json:"addr,omitempty"`
	Seq    uint64 `json:"seq,omitempty"`
	Region uint64 `json:"region,omitempty"`
	Val    uint64 `json:"val,omitempty"`
	Val2   uint64 `json:"val2,omitempty"`
	Count  uint32 `json:"count,omitempty"`
}

// ToRecordEvent converts an Event to its JSON form.
func ToRecordEvent(e Event) RecordEvent {
	return RecordEvent{
		Kind: e.Kind.String(), Flags: e.Flags.String(),
		Core: e.Core, Cycle: e.Cycle, Addr: e.Addr, Seq: e.Seq,
		Region: e.Region, Val: e.Val, Val2: e.Val2, Count: e.Count,
	}
}

// Event decodes the JSON form back to an Event; ok is false for an unknown
// kind name.
func (re RecordEvent) Event() (Event, bool) {
	k, ok := KindFromString(re.Kind)
	if !ok {
		return Event{}, false
	}
	return Event{
		Kind: k, Flags: FlagsFromString(re.Flags),
		Core: re.Core, Cycle: re.Cycle, Addr: re.Addr, Seq: re.Seq,
		Region: re.Region, Val: re.Val, Val2: re.Val2, Count: re.Count,
	}, true
}

// AuditSummary is the auditor's verdict embedded in a run record.
type AuditSummary struct {
	Enabled     bool   `json:"enabled"`
	Events      uint64 `json:"events"`
	Violations  uint64 `json:"violations"`
	FirstRule   string `json:"first_rule,omitempty"`
	FirstDetail string `json:"first_detail,omitempty"`
}

// RunRecord is the self-describing record of one simulated run: the schema
// tag, the workload identity (name + program fingerprint), the machine
// configuration and final statistics (opaque JSON, so this leaf package
// needs no machine types), the auditor's verdict, and the flight recorder's
// retained event tail plus a digest over the *complete* event stream.
type RunRecord struct {
	Schema      string          `json:"schema"`
	Name        string          `json:"name,omitempty"`
	Fingerprint string          `json:"fingerprint,omitempty"`
	Config      json.RawMessage `json:"config,omitempty"`
	Stats       json.RawMessage `json:"stats,omitempty"`
	Audit       *AuditSummary   `json:"audit,omitempty"`
	// Faults is the injected fault plan (capri/fault-plan/v1 JSON) when the
	// run was a fault-campaign trial — opaque here so this leaf package
	// needs no fault types; capriinspect renders it and diff treats it as
	// part of the run's identity.
	Faults json.RawMessage `json:"faults,omitempty"`
	// Metrics is the run's occupancy/latency histogram set
	// (machine.Metrics JSON) when the run collected them — opaque here
	// like Config/Stats; capriinspect summary derives its percentile
	// report from it. Set with SetMetrics.
	Metrics     json.RawMessage `json:"metrics,omitempty"`
	EventsTotal uint64          `json:"events_total"`
	EventsKept  int             `json:"events_kept"`
	Dropped     uint64          `json:"events_dropped"`
	Digest      string          `json:"digest"`
	Events      []RecordEvent   `json:"events,omitempty"`
}

// NewRunRecord assembles a run record from a flight recorder and an
// optional auditor. Callers fill Name/Fingerprint/Config/Stats.
func NewRunRecord(rec *FlightRecorder, aud *Auditor) *RunRecord {
	events := rec.Events()
	r := &RunRecord{
		Schema:      RecordSchema,
		EventsTotal: rec.Total(),
		EventsKept:  len(events),
		Dropped:     rec.Dropped(),
		Digest:      fmt.Sprintf("%x", rec.Digest()),
		Events:      make([]RecordEvent, 0, len(events)),
	}
	for _, e := range events {
		r.Events = append(r.Events, ToRecordEvent(e))
	}
	if aud != nil {
		s := &AuditSummary{
			Enabled:    true,
			Events:     aud.EventsAudited(),
			Violations: aud.ViolationCount(),
		}
		if vs := aud.Violations(); len(vs) > 0 {
			s.FirstRule = vs[0].Rule
			s.FirstDetail = vs[0].Detail
		}
		r.Audit = s
	}
	return r
}

// NewRunRecordFull is NewRunRecord plus the workload identity and the opaque
// config/stats payloads (any JSON-marshalable values — this leaf package
// never sees the machine types).
func NewRunRecordFull(rec *FlightRecorder, aud *Auditor, name, fingerprint string, config, stats any) (*RunRecord, error) {
	r := NewRunRecord(rec, aud)
	r.Name = name
	r.Fingerprint = fingerprint
	if config != nil {
		b, err := json.Marshal(config)
		if err != nil {
			return nil, fmt.Errorf("run record config: %w", err)
		}
		r.Config = b
	}
	if stats != nil {
		b, err := json.Marshal(stats)
		if err != nil {
			return nil, fmt.Errorf("run record stats: %w", err)
		}
		r.Stats = b
	}
	return r, nil
}

// SetMetrics attaches the run's histogram payload (any JSON-marshalable
// value; in practice *machine.Metrics) to the record. A nil value clears
// it.
func (r *RunRecord) SetMetrics(v any) error {
	if v == nil {
		r.Metrics = nil
		return nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("run record metrics: %w", err)
	}
	r.Metrics = b
	return nil
}

// DecodedEvents returns the record's retained events, skipping any with
// unknown kinds (forward compatibility).
func (r *RunRecord) DecodedEvents() []Event {
	out := make([]Event, 0, len(r.Events))
	for _, re := range r.Events {
		if e, ok := re.Event(); ok {
			out = append(out, e)
		}
	}
	return out
}

// WriteFile serializes the record as indented JSON ("-" writes to stdout).
func (r *RunRecord) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// DecodeRunRecord parses a run record, rejecting malformed JSON and unknown
// schemas. It never panics, whatever the input.
func DecodeRunRecord(b []byte) (*RunRecord, error) {
	r := &RunRecord{}
	if err := json.Unmarshal(b, r); err != nil {
		return nil, err
	}
	if r.Schema != RecordSchema {
		return nil, fmt.Errorf("schema %q, want %q", r.Schema, RecordSchema)
	}
	return r, nil
}

// ReadRunRecord loads a run record file with DecodeRunRecord.
func ReadRunRecord(path string) (*RunRecord, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r, err := DecodeRunRecord(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}
