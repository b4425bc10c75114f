package main

import (
	"encoding/json"
	"os"
	"time"

	"capri/internal/audit"
)

// layer is one boundary the benchmark times from outside: a call into a
// public function of one module, or the benchmark's own output checks.
type layer int

const (
	layerCompile layer = iota // compile.Compile
	layerNew                  // machine.New
	layerRun                  // Machine.Run and Machine.RunUntil
	layerCrash                // Machine.Crash
	layerRecover              // machine.RecoverInstrumented
	layerAudit                // building the tap; in traced rounds also every Tap call
	layerVerify               // output oracles, counter harvest and digests
	numLayers
)

var layerNames = [numLayers]string{
	"compile", "machine.new", "machine.run", "machine.crash", "machine.recover", "audit", "bench.verify",
}

// setupLayer is one public call made while setting a workload up.
type setupLayer int

const (
	setupBuild  setupLayer = iota // workload.Benchmark.Build
	setupTarget                   // fault.Target.Build
	setupGolden                   // recovery.RunGolden
	numSetupLayers
)

var setupLayerNames = [numSetupLayers]string{"workload.build", "fault.target_build", "recovery.golden"}

// round collects one round's timings and counters. Busy times are always
// on, at one time.Now pair per layer call; spans, self times and the timed
// audit tap exist only in traced rounds (tr != nil).
type round struct {
	index  int
	traced bool
	wall   time.Duration

	ops, failed int
	failures    []string
	opLat       []time.Duration
	calls       [numLayers]int
	busy        [numLayers]time.Duration
	callLat     [numLayers][]time.Duration

	sim         simTotals
	overheadPct float64 // sweeps: simulated Capri overhead at threshold 256

	simDigest, compileDigest []byte

	mallocs, allocBytes uint64
	gcCycles            uint32
	gcPause             time.Duration

	tr        *tracer
	opStart   time.Time
	self      [numLayers]time.Duration
	opTime    time.Duration // sum of op (root) spans
	spanTime  time.Duration // sum of layer (child) spans
	tap       *timedSink    // the current op's tap wrapper
	tapMark   time.Duration // tap time already charged to an earlier span of the op
	tapTime   time.Duration
	tapEvents uint64
}

// beginOp starts timing one op (a sweep cell, a compile or a crash point).
func (r *round) beginOp() {
	r.tap, r.tapMark = nil, 0
	r.opStart = time.Now()
}

// endOp closes the current op; a non-nil err counts it as failed.
func (r *round) endOp(label string, err error) {
	d := time.Since(r.opStart)
	r.ops++
	r.opLat = append(r.opLat, d)
	if err != nil {
		r.failed++
		r.failures = append(r.failures, label+": "+err.Error())
	}
	if r.tr == nil {
		return
	}
	r.opTime += d
	args := &traceArgs{Op: r.tr.op, Round: r.index}
	if r.tap != nil {
		args.TapNS, args.TapEvents = int64(r.tap.ns), r.tap.n
		r.tapTime += r.tap.ns
		r.tapEvents += r.tap.n
	}
	r.tr.add(label, "op", r.opStart, d, args)
	r.tr.op++
}

// timed charges the layer call that started at t0 and has just returned.
// In traced rounds it also records the call as a child span of the current
// op, and moves the tap time spent inside the call to the audit layer.
func (r *round) timed(l layer, t0 time.Time) {
	d := time.Since(t0)
	r.calls[l]++
	r.busy[l] += d
	r.callLat[l] = append(r.callLat[l], d)
	if r.tr == nil {
		return
	}
	var inTap time.Duration
	if r.tap != nil {
		inTap = r.tap.ns - r.tapMark
		r.tapMark = r.tap.ns
	}
	r.self[l] += d - inTap
	r.self[layerAudit] += inTap
	r.spanTime += d
	r.tr.add(layerNames[l], "layer", t0, d, &traceArgs{Op: r.tr.op, Round: r.index})
}

// wrapTap returns the sink to attach for the current op: s itself, or in
// traced rounds a wrapper that times every Tap call into per-op counters.
func (r *round) wrapTap(s audit.Sink) audit.Sink {
	if r.tr == nil {
		return s
	}
	r.tap = &timedSink{inner: s}
	return r.tap
}

// timedSink times each Tap call of the sink it wraps.
type timedSink struct {
	inner audit.Sink
	ns    time.Duration
	n     uint64
}

func (t *timedSink) Tap(e audit.Event) {
	t0 := time.Now()
	t.inner.Tap(e)
	t.ns += time.Since(t0)
	t.n++
}

// setupRec times the public calls of one set-up repetition.
type setupRec struct {
	busy [numSetupLayers]time.Duration
	tr   *tracer
}

func (s *setupRec) timed(l setupLayer, t0 time.Time) {
	d := time.Since(t0)
	s.busy[l] += d
	if s.tr != nil {
		s.tr.add(setupLayerNames[l], "setup", t0, d, nil)
	}
}

// tracer keeps the spans of a traced run in memory until it ends.
type tracer struct {
	epoch  time.Time
	op     int
	events []traceEvent
}

// traceEvent is one Chrome trace-event "complete" event.
type traceEvent struct {
	Name string     `json:"name"`
	Cat  string     `json:"cat"`
	Ph   string     `json:"ph"`
	TS   float64    `json:"ts"`
	Dur  float64    `json:"dur"`
	PID  int        `json:"pid"`
	TID  int        `json:"tid"`
	Args *traceArgs `json:"args,omitempty"`
}

// traceArgs ties a span to its op; an op span also carries its tap counters.
type traceArgs struct {
	Op        int    `json:"op"`
	Round     int    `json:"round"`
	TapNS     int64  `json:"tap_ns,omitempty"`
	TapEvents uint64 `json:"tap_events,omitempty"`
}

func (t *tracer) add(name, cat string, start time.Time, d time.Duration, args *traceArgs) {
	t.events = append(t.events, traceEvent{
		Name: name, Cat: cat, Ph: "X",
		TS:  float64(start.Sub(t.epoch).Nanoseconds()) / 1e3,
		Dur: float64(d.Nanoseconds()) / 1e3,
		PID: 1, TID: 1, Args: args,
	})
}

// write stores the spans as a Chrome trace-event JSON document, loadable in
// Perfetto or chrome://tracing.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(struct {
		DisplayTimeUnit string       `json:"displayTimeUnit"`
		TraceEvents     []traceEvent `json:"traceEvents"`
	}{"ms", t.events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
