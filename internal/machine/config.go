// Package machine assembles the whole Capri system (paper Figure 1): N
// out-of-order-approximated cores with private L1 data caches and front-end
// proxy buffers, a shared L2, per-core proxy paths into back-end proxy
// buffers at the integrated memory controller, a direct-mapped DRAM cache,
// and NVM main memory. It executes compiled programs functionally (so crash
// recovery can be validated end to end) while accounting cycles with an
// execution-driven timing model (so the paper's figures can be regenerated).
//
// Power failure can be injected at any instruction boundary; the machine then
// yields a CrashImage containing exactly the state the paper's failure model
// preserves: NVM plus the battery-backed proxy buffers. The recovery package
// turns a CrashImage back into a runnable machine.
package machine

import "fmt"

// Config describes the simulated hardware. Cycle quantities assume the 2 GHz
// clock of Table 1 (1 ns = 2 cycles).
type Config struct {
	// Cores is the number of hardware threads (Table 1: 8-way OoO, 8 cores).
	Cores int

	// Capri enables the proxy-buffer persistence machinery. With it false
	// the machine is the volatile baseline all results are normalized to.
	Capri bool

	// Threshold is the compiler store threshold; it sizes the back-end proxy
	// buffer (capacity == threshold entries, §5.2.2).
	Threshold int

	// FrontEndEntries sizes the front-end proxy buffer (Table 1: 32).
	FrontEndEntries int

	// Cache geometry.
	L1Size   uint64 // bytes (Table 1: 32 KB)
	L1Ways   int    // 8
	L2Size   uint64 // bytes (16 MB shared)
	L2Ways   int    // 16
	DRAMSize uint64 // DRAM cache bytes (8 GB; scaled down in tests)

	// Latencies in cycles.
	L1Hit    uint64 // 2 ns = 4
	L2Hit    uint64 // 20 ns = 40
	DRAMHit  uint64 // ~50 ns = 100
	NVMRead  uint64 // 150 ns = 300
	NVMWrite uint64 // per-64B write-queue occupancy (bandwidth, not latency)
	// NVMEntryWrite is the write-queue occupancy of one phase-2 redo drain
	// (a word-granularity proxy entry, much smaller than a 64B writeback).
	NVMEntryWrite uint64

	// Proxy path (Table 1: 20 ns latency).
	ProxyLatency  uint64 // 40 cycles
	ProxyInterval uint64 // cycles between entry departures (bandwidth)

	// LoadOverlap divides post-L1 load stall cycles, standing in for the
	// memory-level parallelism an 8-way OoO core extracts.
	LoadOverlap uint64

	// LockRetry is the back-off in cycles between spin-lock attempts.
	LockRetry uint64

	// MaxSteps bounds total scheduler steps (deadlock/runaway guard).
	MaxSteps uint64

	// Ablation switches (design-choice studies; all false in the paper's
	// configuration). Correctness is preserved under every combination —
	// the NVM sequence guard is the formal backstop — only performance and
	// NVM write traffic change.
	//
	// NoScanInvalidate disables the back-end writeback scan and the proxy
	// path's monitoring window (§5.3.2): phase 2 then re-writes data that
	// dirty writebacks already persisted.
	NoScanInvalidate bool
	// NoElision emits boundary entries even for store-free regions
	// (disables the §5.2.1 traffic optimization).
	NoElision bool
	// NoFrontMerge disables same-region merging in the front-end proxy.
	NoFrontMerge bool
	// NoBackMerge disables same-region merging in the back-end proxy.
	NoBackMerge bool
}

// DefaultConfig returns the paper's Table 1 configuration (DRAM cache scaled
// to 64 MB — the simulated working sets are scaled down equivalently).
func DefaultConfig() Config {
	return Config{
		Cores:           8,
		Capri:           true,
		Threshold:       256,
		FrontEndEntries: 32,
		L1Size:          32 << 10,
		L1Ways:          8,
		L2Size:          16 << 20,
		L2Ways:          16,
		DRAMSize:        64 << 20,
		L1Hit:           4,
		L2Hit:           40,
		DRAMHit:         100,
		NVMRead:         300,
		NVMWrite:        32, // ≈ 4 GB/s of 64B writes at 2 GHz
		NVMEntryWrite:   16, // redo line drain through the per-bank WPQ
		ProxyLatency:    40,
		ProxyInterval:   8,
		LoadOverlap:     4,
		LockRetry:       50,
		MaxSteps:        2_000_000_000,
	}
}

// Size bounds Validate enforces. Caches and the front-end buffer are
// allocated up front and the DRAM cache's chunk directory with them, so a
// crash image carrying a huge size would otherwise exhaust memory in New.
// The proxy path's latency and interval size no allocation, but they feed its
// departure and arrival cycle sums, which a value near 2^64 would wrap. Each
// bound is far above Table 1's configuration.
const (
	maxCacheBytes   = 256 << 20
	maxWays         = 1 << 10
	maxDRAMBytes    = 64 << 30
	maxFrontEntries = 1 << 16
	maxProxyCycles  = 1 << 20
)

// MaxCores bounds Config.Cores. The auditor keeps state for every configured
// core, so a fault plan or crash image naming a huge core count would
// otherwise exhaust memory; every workload uses at most 8 cores.
const MaxCores = 1 << 10

// Validate checks the configuration for usability.
func (c Config) Validate() error {
	if c.Cores <= 0 || c.Cores > MaxCores {
		return fmt.Errorf("machine: cores = %d, want 1..%d", c.Cores, MaxCores)
	}
	if c.Capri {
		if c.Threshold <= 0 {
			return fmt.Errorf("machine: threshold = %d", c.Threshold)
		}
		if c.FrontEndEntries <= 0 {
			return fmt.Errorf("machine: front-end entries = %d", c.FrontEndEntries)
		}
		if c.ProxyInterval == 0 {
			// With a zero latency too, draining the proxy path at the end
			// of a run would never advance time.
			return fmt.Errorf("machine: ProxyInterval must be >= 1")
		}
	}
	if c.L1Size == 0 || c.L2Size == 0 || c.L1Ways <= 0 || c.L2Ways <= 0 {
		return fmt.Errorf("machine: bad cache geometry")
	}
	if c.L1Size > maxCacheBytes || c.L2Size > maxCacheBytes || c.L1Ways > maxWays || c.L2Ways > maxWays ||
		c.DRAMSize > maxDRAMBytes || c.FrontEndEntries > maxFrontEntries ||
		c.ProxyLatency > maxProxyCycles || c.ProxyInterval > maxProxyCycles {
		return fmt.Errorf("machine: cache or buffer size beyond the simulator's bounds")
	}
	if c.LoadOverlap == 0 {
		return fmt.Errorf("machine: LoadOverlap must be >= 1")
	}
	return nil
}

// Table1 renders the configuration in the shape of the paper's Table 1.
func (c Config) Table1() string {
	return fmt.Sprintf(`Simulator configuration (paper Table 1)
Processor          %d cores, 8-way-OoO-approximated, 2 GHz
L1 D-Cache         %d KB, %d-way, private, %d-cycle hit
L2 Cache           %d MB, %d-way, shared, %d-cycle hit
DRAM cache         %d MB, direct-mapped, 64 B blocks, %d-cycle hit
NVM                read %d cycles, write-queue occupancy %d cycles/64B
Proxy path         %d-cycle latency, 1 entry / %d cycles
Front-end proxy    %d entries
Back-end proxy     %d entries per core (== store threshold)
`,
		c.Cores,
		c.L1Size>>10, c.L1Ways, c.L1Hit,
		c.L2Size>>20, c.L2Ways, c.L2Hit,
		c.DRAMSize>>20, c.DRAMHit,
		c.NVMRead, c.NVMWrite,
		c.ProxyLatency, c.ProxyInterval,
		c.FrontEndEntries,
		c.Threshold)
}
