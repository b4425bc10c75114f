// Package telemetry is the live observability bus (DESIGN.md §4j): hot
// paths — the machine scheduler loop, the sweep orchestrator, the fault
// campaigns — publish progress into atomically-updated snapshot structs,
// and a sampler collects those snapshots on an interval and exposes them
// as an OpenMetrics/Prometheus text endpoint plus a JSONL heartbeat
// stream for headless CI.
//
// The design contract is zero overhead when off. Publishing sites never
// allocate and never take locks: counters and gauges are plain
// atomic.Uint64 adds, and the machine hot path additionally gates on a
// single armed-pointer load per run — when no bus has been started, the
// per-run cost is one atomic load and the per-scheduler-pop cost is one
// nil check. Gauges that sum across concurrently running machines are
// published as wrapping deltas (Add(new−old)), so the aggregate is exact
// at every instant without any machine registry or lock.
package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind distinguishes the OpenMetrics family types the bus exposes.
type Kind int

// Metric family kinds. Counters are monotonically non-decreasing and are
// exposed with the OpenMetrics `_total` sample suffix; gauges are
// instantaneous values that may move in both directions.
const (
	Counter Kind = iota
	Gauge
)

// Metric is one sample of one family: a snapshot value the registry
// gathered from a source. Name is the family name without any suffix
// (the OpenMetrics encoder appends `_total` to counter samples itself).
type Metric struct {
	Name  string
	Help  string
	Kind  Kind
	Value float64
}

// Source is anything that can contribute metric samples to a gather.
type Source interface {
	// Collect appends the source's current samples to dst and returns
	// the extended slice. Implementations must be safe for concurrent
	// use with the publishing side.
	Collect(dst []Metric) []Metric
}

// Func adapts a closure to the Source interface, for process-local
// sources like compile-cache hit rates that live behind existing
// accessors.
type Func func(dst []Metric) []Metric

// Collect implements Source.
func (f Func) Collect(dst []Metric) []Metric { return f(dst) }

// Registry is an ordered set of sources gathered together per scrape or
// heartbeat tick. The zero value is unusable; use NewRegistry.
type Registry struct {
	mu      sync.Mutex
	sources []Source
}

// NewRegistry returns a registry pre-populated with the process-global
// machine, sweep, and campaign snapshot sources.
func NewRegistry() *Registry {
	r := &Registry{}
	r.Register(Machines, Sweeps, Campaigns, Caches)
	return r
}

// Register appends sources to the registry. Safe to call concurrently
// with Gather.
func (r *Registry) Register(srcs ...Source) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sources = append(r.sources, srcs...)
}

// Gather collects one consistent-enough snapshot from every source and
// returns the samples sorted by family name (stable output for the text
// exposition and the heartbeat stream).
func (r *Registry) Gather() []Metric {
	r.mu.Lock()
	srcs := make([]Source, len(r.sources))
	copy(srcs, r.sources)
	r.mu.Unlock()
	var out []Metric
	for _, s := range srcs {
		out = s.Collect(out)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// MachineTelemetry is the machine hot path's snapshot struct. Counter
// fields only ever grow; gauge fields are live sums over all currently
// running machines, maintained by wrapping delta publishes from each
// machine (see internal/machine's telemetry hook). All fields are
// written with atomic adds and read with atomic loads — no locks touch
// the simulator loop.
type MachineTelemetry struct {
	// Active is the number of machines currently inside Run.
	Active atomic.Int64
	// Runs counts completed machine runs (normal or crash exit).
	Runs atomic.Uint64
	// Cycles and Instret accumulate simulated cycles and retired
	// instructions across all runs, published in batches from the
	// scheduler loop.
	Cycles  atomic.Uint64
	Instret atomic.Uint64
	// FrontOcc, BackOcc, PathInFlight, DrainQueue, and WPQDepth are
	// gauges: instantaneous occupancy of the per-core front/back proxy
	// buffers, the proxy path, the drain-ready queue, and the NVM write
	// pending queue, summed over running machines.
	FrontOcc     atomic.Uint64
	BackOcc      atomic.Uint64
	PathInFlight atomic.Uint64
	DrainQueue   atomic.Uint64
	WPQDepth     atomic.Uint64
	// DrainQueueCore breaks DrainQueue down by core index, so cross-core
	// drain skew (one core's phase-2 bank backed up while its peers idle)
	// is visible live. Cores at or beyond MaxCoreGauges fold into the last
	// slot. DrainCores is the high-water mark of core counts seen on any
	// armed machine; Collect exposes exactly that many per-core families,
	// so single-core runs add no extra scrape noise.
	DrainQueueCore [MaxCoreGauges]atomic.Uint64
	DrainCores     atomic.Int64
}

// MaxCoreGauges bounds the per-core gauge families a snapshot exposes.
// Machines with more cores fold the excess into the last gauge.
const MaxCoreGauges = 16

// drainCoreNames are the per-core family names, precomputed so Collect
// stays allocation-free apart from the dst append. Zero-padded so the
// sorted exposition lists cores in numeric order.
var drainCoreNames = func() [MaxCoreGauges]string {
	var n [MaxCoreGauges]string
	for i := range n {
		n[i] = fmt.Sprintf("capri_machine_drain_queue_core%02d", i)
	}
	return n
}()

// NoteCores raises the per-core gauge high-water mark to n (clamped to
// MaxCoreGauges). Machines call it once at run entry when armed.
func (t *MachineTelemetry) NoteCores(n int) {
	if n > MaxCoreGauges {
		n = MaxCoreGauges
	}
	for {
		cur := t.DrainCores.Load()
		if int64(n) <= cur || t.DrainCores.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// Collect implements Source.
func (t *MachineTelemetry) Collect(dst []Metric) []Metric {
	dst = append(dst,
		Metric{"capri_machine_active", "Machines currently inside Run.", Gauge, float64(t.Active.Load())},
		Metric{"capri_machine_runs", "Completed machine runs.", Counter, float64(t.Runs.Load())},
		Metric{"capri_machine_cycles", "Simulated cycles across all runs.", Counter, float64(t.Cycles.Load())},
		Metric{"capri_machine_instret", "Retired instructions across all runs.", Counter, float64(t.Instret.Load())},
		Metric{"capri_machine_front_occupancy", "Front proxy buffer entries, summed over running machines.", Gauge, float64(t.FrontOcc.Load())},
		Metric{"capri_machine_back_occupancy", "Back proxy buffer entries, summed over running machines.", Gauge, float64(t.BackOcc.Load())},
		Metric{"capri_machine_path_inflight", "Proxy path packets in flight, summed over running machines.", Gauge, float64(t.PathInFlight.Load())},
		Metric{"capri_machine_drain_queue", "Drain-ready queue entries, summed over running machines.", Gauge, float64(t.DrainQueue.Load())},
		Metric{"capri_machine_wpq_depth", "NVM write-pending-queue depth, summed over running machines.", Gauge, float64(t.WPQDepth.Load())},
	)
	n := int(t.DrainCores.Load())
	if n > MaxCoreGauges {
		n = MaxCoreGauges
	}
	for i := 0; i < n; i++ {
		dst = append(dst, Metric{drainCoreNames[i],
			"Drain-ready queue entries on this core, summed over running machines.",
			Gauge, float64(t.DrainQueueCore[i].Load())})
	}
	return dst
}

// SweepTelemetry is the sweep orchestrator's snapshot struct: unit
// progress for figure grids, prefetches, and campaign shards.
type SweepTelemetry struct {
	// UnitsPlanned counts units handed to Run across all sweeps.
	UnitsPlanned atomic.Uint64
	// UnitsDone counts units that finished (successfully or not).
	UnitsDone atomic.Uint64
	// Failures counts units whose runner returned an error.
	Failures atomic.Uint64
	// InFlight is the number of units currently executing.
	InFlight atomic.Int64
}

// Collect implements Source.
func (t *SweepTelemetry) Collect(dst []Metric) []Metric {
	return append(dst,
		Metric{"capri_sweep_units_planned", "Sweep units scheduled.", Counter, float64(t.UnitsPlanned.Load())},
		Metric{"capri_sweep_units_done", "Sweep units finished.", Counter, float64(t.UnitsDone.Load())},
		Metric{"capri_sweep_failures", "Sweep units that returned an error.", Counter, float64(t.Failures.Load())},
		Metric{"capri_sweep_inflight", "Sweep units currently executing.", Gauge, float64(t.InFlight.Load())},
	)
}

// CampaignTelemetry is the fault campaign's snapshot struct: per-trial
// progress counters published from internal/fault's campaign loop.
type CampaignTelemetry struct {
	// Targets counts campaign targets started.
	Targets atomic.Uint64
	// Trials counts fault-plan trials completed.
	Trials atomic.Uint64
	// Faults counts injected faults across all trials.
	Faults atomic.Uint64
	// Crashes, Recoveries, and NestedCrashes count the crash machinery's
	// lifecycle events observed by the campaign.
	Crashes       atomic.Uint64
	Recoveries    atomic.Uint64
	NestedCrashes atomic.Uint64
	// Violations counts trials that failed verification or audit.
	Violations atomic.Uint64
}

// Collect implements Source.
func (t *CampaignTelemetry) Collect(dst []Metric) []Metric {
	return append(dst,
		Metric{"capri_campaign_targets", "Fault-campaign targets started.", Counter, float64(t.Targets.Load())},
		Metric{"capri_campaign_trials", "Fault-plan trials completed.", Counter, float64(t.Trials.Load())},
		Metric{"capri_campaign_faults", "Faults injected.", Counter, float64(t.Faults.Load())},
		Metric{"capri_campaign_crashes", "Crashes observed.", Counter, float64(t.Crashes.Load())},
		Metric{"capri_campaign_recoveries", "Recoveries completed.", Counter, float64(t.Recoveries.Load())},
		Metric{"capri_campaign_nested_crashes", "Crashes injected during recovery.", Counter, float64(t.NestedCrashes.Load())},
		Metric{"capri_campaign_violations", "Trials that failed verification or audit.", Counter, float64(t.Violations.Load())},
	)
}

// CacheTelemetry is the compile-cache traffic snapshot, published per
// lookup from internal/compile (cache operations sit far off the simulator
// hot path, so publishing is unconditional). Hit rates are derived by the
// consumer from the counter pair.
type CacheTelemetry struct {
	// CompileHits and CompileMisses count compile-cache lookups served
	// from memory and compiled fresh.
	CompileHits   atomic.Uint64
	CompileMisses atomic.Uint64
}

// Collect implements Source.
func (t *CacheTelemetry) Collect(dst []Metric) []Metric {
	return append(dst,
		Metric{"capri_compile_cache_hits", "Compile-cache lookups served from memory.", Counter, float64(t.CompileHits.Load())},
		Metric{"capri_compile_cache_misses", "Compile-cache lookups compiled fresh.", Counter, float64(t.CompileMisses.Load())},
	)
}

// Process-global snapshot structs. Hot paths publish into these
// unconditionally (sweep, campaign, caches: one atomic add per unit,
// trial, or lookup) or when armed (machine: see EnableMachine); the
// registry reads them.
var (
	// Machines is the global machine snapshot.
	Machines = &MachineTelemetry{}
	// Sweeps is the global sweep snapshot.
	Sweeps = &SweepTelemetry{}
	// Campaigns is the global campaign snapshot.
	Campaigns = &CampaignTelemetry{}
	// Caches is the global compile-cache snapshot.
	Caches = &CacheTelemetry{}
)

// armed is the machine hot path's gate: nil means telemetry is off and
// machine runs skip all publishing (zero-overhead-when-off contract).
var armed atomic.Pointer[MachineTelemetry]

// EnableMachine arms machine-loop publishing into the global Machines
// snapshot. Machines read the armed pointer once at run entry, so runs
// already in flight keep their current arming.
func EnableMachine() { armed.Store(Machines) }

// DisableMachine disarms machine-loop publishing.
func DisableMachine() { armed.Store(nil) }

// ArmedMachine returns the machine snapshot to publish into, or nil when
// machine telemetry is off. The machine calls this once per run.
func ArmedMachine() *MachineTelemetry { return armed.Load() }
