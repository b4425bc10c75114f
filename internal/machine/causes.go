package machine

import "capri/internal/stats"

// CycleCause labels where a core's cycles went. The ledger is exhaustive by
// construction: every addition to a core's cycle count is tagged with exactly
// one cause, so per core the bucket totals always sum to the cycle count
// (checked by TestCycleLedgerExhaustive). That identity is what makes
// `capribench -explain` exact — the Capri-vs-baseline cycle gap decomposes
// into signed per-cause deltas with zero residual.
//
// The causes fall into three groups:
//
//   - Issue costs (CauseExec..CauseFence): cycles the instruction stream
//     spends executing, including the persistence instructions the compiler
//     inserted (checkpoint stores, boundaries). These exist on both the
//     baseline and the Capri machine (the persistence ones are zero on the
//     baseline).
//   - Memory stalls (CauseLoadL1..CauseLoadNVM): load latency attributed to
//     the level of the hierarchy that served the access.
//   - Persistence stalls (CauseLockSpin..CauseDrainWait): cycles lost waiting
//     on the proxy machinery — the decomposition the paper's Figures 8/9
//     argue from. See DESIGN.md §4c for when each one increments.
type CycleCause uint8

// Cycle causes. The order is the display order of `capribench -explain` and
// caprisim's breakdown.
const (
	// CauseExec is plain instruction issue: ALU/branch/mul/div slots.
	CauseExec CycleCause = iota
	// CauseLoadL1 .. CauseLoadNVM attribute a load's stall to the level that
	// served it (the whole charge, including the L1 probe, goes to that
	// level; post-L1 latencies are already divided by Config.LoadOverlap).
	CauseLoadL1
	CauseLoadL2
	CauseLoadDRAM
	CauseLoadNVM
	// CauseStore is store-buffer issue cost of regular and sync stores.
	CauseStore
	// CauseCkpt is the issue cost of compiler-inserted checkpoint stores
	// (register read + staging-storage port) — pure Capri overhead.
	CauseCkpt
	// CauseBoundary is the issue cost of region-boundary instructions
	// (store-buffer serialization slots) — pure Capri overhead.
	CauseBoundary
	// CauseSync is the RMW latency of atomic/lock/unlock memory operations.
	CauseSync
	// CauseFence is fence/barrier pipeline bubbles.
	CauseFence
	// CauseLockSpin is spin-lock back-off (the retry loop of OpLock).
	CauseLockSpin
	// CauseFrontFull is a front-end-proxy-full stall whose root cause is
	// proxy-path bandwidth: the buffer cannot drain because no departure
	// slot is available (§5.2.1's core-stall condition).
	CauseFrontFull
	// CauseBackPressure is a front-end-full stall whose root cause is
	// back-end space: the oldest front-end entry is data, and the back-end
	// buffer plus in-flight packets have reached the threshold, but no
	// phase-2 drain is booked yet (the region's boundary has not arrived).
	CauseBackPressure
	// CauseNVMQueue is a back-pressure stall while a phase-2 drain is booked
	// and waiting on the per-core NVM write-pending-queue bank — the stall
	// the paper attributes to NVM write bandwidth.
	CauseNVMQueue
	// CauseDrainRetry is a stall charged while the core's oldest phase-2
	// drain is re-booked after a transient NVM write error (fault model
	// only — zero unless Machine.ArmFaults installed a DrainError hook).
	CauseDrainRetry
	// CauseDrainWait is the end-of-run quiesce: cycles a finished core waits
	// for its remaining regions to complete phase 2.
	CauseDrainWait

	// NumCycleCauses sizes per-cause arrays.
	NumCycleCauses
)

var causeNames = [NumCycleCauses]string{
	CauseExec:         "exec",
	CauseLoadL1:       "load-l1",
	CauseLoadL2:       "load-l2",
	CauseLoadDRAM:     "load-dram",
	CauseLoadNVM:      "load-nvm",
	CauseStore:        "store",
	CauseCkpt:         "ckpt",
	CauseBoundary:     "boundary",
	CauseSync:         "sync",
	CauseFence:        "fence",
	CauseLockSpin:     "spin",
	CauseFrontFull:    "front-full",
	CauseBackPressure: "backpress",
	CauseNVMQueue:     "nvm-queue",
	CauseDrainRetry:   "drain-retry",
	CauseDrainWait:    "drain-wait",
}

// String returns the cause's short name (as used in explain tables).
func (cc CycleCause) String() string {
	if cc < NumCycleCauses {
		return causeNames[cc]
	}
	return "cause(?)"
}

// IsStall reports whether the cause is a persistence stall (cycles the core
// lost waiting on proxy machinery) rather than issue or memory-latency cost.
func (cc CycleCause) IsStall() bool {
	switch cc {
	case CauseLockSpin, CauseFrontFull, CauseBackPressure, CauseNVMQueue, CauseDrainRetry, CauseDrainWait:
		return true
	}
	return false
}

// tick advances the core's cycle count, attributing the cycles to cause. It
// is the only way core cycles may advance (keeping the ledger exhaustive).
func (c *core) tick(cause CycleCause, n uint64) {
	c.cycle += n
	c.cycleBy[cause] += n
}

// stall advances the core to cycle `until`, attributing the waited cycles to
// cause, which must be a stall cause (Stats.StallCycles sums those).
func (c *core) stall(cause CycleCause, until uint64) {
	c.tick(cause, until-c.cycle)
}

// Metrics is the optional occupancy/latency histogram set (enable with
// Machine.EnableMetrics). Sampling happens at region boundaries and at
// memory-controller writebacks — cold(ish) points — so the enabled overhead
// stays well under the 3% contract of DESIGN.md §4c; when disabled the hot
// path pays a single nil check. All histograms are stats.Hist (power-of-two
// buckets, zero allocation).
type Metrics struct {
	FrontOcc     stats.Hist // front-end proxy occupancy (entries), sampled per committed boundary
	BackOcc      stats.Hist // back-end proxy occupancy (entries), sampled per committed boundary
	PathInFlight stats.Hist // proxy-path packets in flight, sampled per committed boundary
	WindowLive   stats.Hist // monitoring-window entries live, sampled per committed boundary
	L1Dirty      stats.Hist // dirty L1 lines, sampled per committed boundary
	WPQDepth     stats.Hist // shared NVM write-queue depth in pending 64B writes, sampled per controller writeback
	DrainQueue   stats.Hist // per-core phase-2 bank depth in pending entry-writes, sampled per drain booking
	RegionInsts  stats.Hist // instructions per committed region
	RegionStores stats.Hist // stores (incl. checkpoints) per committed region
	CommitLat    stats.Hist // cycles from boundary commit (front-end) to phase-2 completion
	DrainRetries stats.Hist // write-error retries per phase-2 drain (fault model; recorded at final success or exhaustion)
}

// EnableMetrics switches on histogram collection (idempotent) and returns
// the machine's metrics set.
func (m *Machine) EnableMetrics() *Metrics {
	if m.metrics == nil {
		m.metrics = &Metrics{}
	}
	return m.metrics
}

// Metrics returns the histogram set, or nil when collection is disabled.
func (m *Machine) Metrics() *Metrics { return m.metrics }
