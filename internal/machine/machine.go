package machine

import (
	"fmt"

	"capri/internal/audit"
	"capri/internal/cache"
	"capri/internal/isa"
	"capri/internal/mem"
	"capri/internal/prog"
	"capri/internal/proxy"
	"capri/internal/slab"
	"capri/internal/telemetry"
)

// Memory map conventions for compiled programs. Workloads allocate heap data
// from HeapBase upward; each thread's stack grows down from StackBase(core).
const (
	// HeapBase is where workload data begins.
	HeapBase uint64 = 1 << 20
	// stackSpan is the per-thread stack reservation.
	stackSpan uint64 = 1 << 16
	// stackTop is the top of the stack arena (stacks grow downward).
	stackTop uint64 = 1 << 19
)

// StackBase returns the initial stack pointer for a hardware thread.
func StackBase(core int) uint64 {
	return stackTop - uint64(core)*stackSpan
}

// CoreRecord is the per-core recovery record that lives in NVM: the register
// checkpoint array (paper §4.2's global checkpoint storage), the PC
// checkpoint of the most recently committed region boundary, and the halt
// flag. It is updated only when a boundary entry completes phase 2 (or, at
// recovery, when a committed-but-undrained marker is replayed).
type CoreRecord struct {
	Regs   [isa.NumRegs]uint64
	Fn     int32
	Blk    int32
	Idx    int32
	Region uint64
	Halted bool
	// Sync is the detectability descriptor of the most recently committed
	// synchronization operation (zero Op: none yet). Because a sync op
	// commits atomically with its own region, a recovered record either
	// carries the descriptor with its write persisted at Sync.Seq, or
	// predates the sync entirely — never an in-between (the complete-or-
	// absent contract of Ben-David et al.; see VerifyDetectable).
	Sync proxy.SyncRec
}

// core is one hardware thread plus its private persistence plumbing.
type core struct {
	id    int
	regs  [isa.NumRegs]uint64
	fn    int
	blk   int
	idx   int
	cycle uint64

	halted bool

	// Current-block instruction cache: step refreshes it when (fn, blk)
	// moves, saving two pointer chases per executed instruction
	// (invalidateBlockCache drops it).
	blkFn    int
	blkId    int
	blkInsts []isa.Inst

	// lines is scheduleDrain's distinct-line dedup scratch: an epoch-stamped
	// flat table cleared by generation bump and reused across every region
	// (zero steady-state allocation; see scratch.go).
	lines lineTable

	// The core's hardware, carved by New: its L1 (lines from the machine's
	// one line backing) and its proxy unit (nil pointers on a baseline
	// machine).
	l1    cache.Cache
	front *proxy.FrontEnd
	path  *proxy.Path
	back  *proxy.BackEnd

	// region tracking
	regionSeq    uint64
	regionStores bool // current region allocated data entries
	stagedEmits  []uint64

	// phase-2 drain scheduling: the availability of this core's NVM
	// write-queue bank. The completion cycles of the regions whose boundary
	// has arrived are booked beside their markers in the back-end.
	drainFree uint64

	// svcAt is the service event horizon: the earliest cycle at which
	// m.service(c) could do anything (next drain completion, next path
	// arrival, or next front-end departure slot). Strictly before it,
	// service is provably a no-op and is skipped; every proxy mutation
	// outside service folds its earliest consequence (the next departure
	// slot) into it, and service itself recomputes it (recomputeSvc).
	// Purely a simulator fast path — the serviced schedule is identical to
	// servicing before every instruction.
	svcAt uint64

	// drain-retry state (fault model): consecutive transient write errors of
	// the oldest booked drain, and lifetime retry/exhaustion counters.
	drainAttempts  int
	drainRetries   uint64
	drainExhausted uint64

	// in-flight data entries on the proxy path (for back-end space
	// accounting).
	inflightData int

	// durable, committed output tape (conceptually in NVM).
	output []uint64

	// statistics
	instret   uint64
	dynStores uint64
	dynCkpts  uint64
	dynBounds uint64

	// cycleBy is the always-on cycle-accounting ledger: every cycle added to
	// c.cycle is attributed to exactly one CycleCause (see causes.go), so the
	// buckets always sum to c.cycle. `capribench -explain` is built on it.
	cycleBy [NumCycleCauses]uint64

	// commitCycles queues the commit cycle of each non-elided boundary, in
	// order, for the commit-latency histogram (metrics enabled only; boundary
	// FIFO order equals drain order per core, so a simple queue pairs them).
	commitCycles []uint64

	// per-region dynamic shape (Figures 10 & 11)
	curInsts     uint64
	curStores    uint64
	sumInsts     uint64
	sumStores    uint64
	regionsEnded uint64
}

// Machine is the simulated system.
type Machine struct {
	cfg  Config
	prog *prog.Program

	mem  *mem.Mem // architectural (volatile)
	nvm  *mem.NVM
	dram *mem.DRAMCache
	l2   cache.Cache

	// window is the memory controller's monitoring window (§5.3.2): one per
	// machine, shared by every core's proxy path. It lives in the machine
	// itself, so it costs no allocation of its own.
	window proxy.Window
	// units are the cores' proxy hardware (nil on a baseline machine);
	// each core's front, path and back point into its unit.
	units []proxy.Unit

	cores   []*core
	records []CoreRecord // NVM-resident recovery records

	seq         uint64 // global store sequence
	steps       uint64
	retired     uint64 // running sum of core instret (crash-point check)
	haltedCores int    // running count of halted cores (Done fast path)

	rq runq // the scheduler's event-ordered run queue (runq.go)

	crashed bool
	fatal   error

	// Live telemetry (telemetry.go): the armed snapshot for the current
	// run segment (nil when telemetry is off) and the last-published
	// delta base. run() captures the arming once per entry.
	tele    *telemetry.MachineTelemetry
	telePub telePub

	tap     audit.Sink  // nil: provenance event emission off
	metrics *Metrics    // nil: histogram collection off
	flt     *faultState // nil: fault model unarmed (see fault.go)

	// devices receive each core's committed output exactly once (§3.3's
	// open I/O problem: effects are released only when their region's
	// commit marker completes phase 2, so an interrupted region's I/O is
	// never performed early, and re-execution after recovery never repeats
	// I/O that already committed).
	devices []OutputDevice
}

// OutputDevice consumes a hardware thread's committed output values. Unlike
// the machine's internal state, a device models the outside world: it is NOT
// rolled back at a crash, which is exactly why delivery must be exactly-once
// and commit-ordered — the guarantee this machine provides.
type OutputDevice interface {
	Output(core int, val uint64)
}

// AttachOutputDevice registers a device for committed output. Values already
// committed before attachment are not replayed.
func (m *Machine) AttachOutputDevice(d OutputDevice) {
	m.devices = append(m.devices, d)
}

// SetTap installs (or removes, with nil) the machine's provenance tap: a
// per-line event stream covering every lifecycle step of the two-phase
// atomic store (see the audit package). The tap is the machine's only event
// stream: the flight recorder, the online Fig. 7 auditor and the trace
// recorder are all views of it (combine them with audit.Tee). Baseline
// (non-Capri) machines have no persistence protocol to observe, so SetTap
// is a no-op for them.
func (m *Machine) SetTap(s audit.Sink) {
	if m.cfg.Capri {
		m.tap = s
	}
}

// AuditOptions returns the audit.Options matching this machine's
// configuration — the model parameters an Auditor needs to mirror it.
func (m *Machine) AuditOptions() audit.Options {
	return audit.Options{
		ProxyLatency: m.cfg.ProxyLatency,
		Windows:      m.cfg.Capri && !m.cfg.NoScanInvalidate,
		Cores:        m.cfg.Cores,
	}
}

// New builds a machine for the given compiled program. The program's thread
// count must not exceed cfg.Cores.
func New(p *prog.Program, cfg Config) (*Machine, error) {
	m, err := build(p, cfg)
	if err != nil {
		return nil, err
	}
	m.mem, m.nvm = mem.NewMem(), mem.NewNVM()
	return m, nil
}

// build is New without the memory images, which recovery supplies from a
// crash image instead. The machine is built at its architectural size: one
// backing per element type — cores, cache lines, proxy units (see
// proxy.NewUnits; their back ends also hold the drain bookings), line-table
// slots, records and the run queue — with each core's share carved from it,
// so construction costs the same number of allocations whatever the thread
// count.
func build(p *prog.Program, cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := p.Verify(); err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	n := p.NumThreads()
	if n > cfg.Cores {
		return nil, fmt.Errorf("machine: program wants %d threads, config has %d cores", n, cfg.Cores)
	}
	m := &Machine{
		cfg:     cfg,
		prog:    p,
		dram:    mem.NewDRAMCache(cfg.DRAMSize),
		cores:   make([]*core, n),
		records: make([]CoreRecord, n),
		rq:      runq{heap: make([]*core, 0, n)},
		window:  proxy.Window{Latency: cfg.ProxyLatency},
	}
	lines := make(cache.Lines, cache.LineCount(cfg.L2Size, cfg.L2Ways)+n*cache.LineCount(cfg.L1Size, cfg.L1Ways))
	m.l2.Init(cfg.L2Size, cfg.L2Ways, &lines)
	cores := make([]core, n)
	var slots []lineSlot
	if cfg.Capri {
		m.units = proxy.NewUnits(n, cfg.FrontEndEntries, cfg.Threshold, cfg.ProxyLatency, cfg.ProxyInterval, &m.window)
		slots = make([]lineSlot, n*lineTableSlots)
	}
	for t := range cores {
		c := &cores[t]
		c.id, c.fn, c.blkFn = t, p.EntryFunc(t), -1
		c.blk = p.Funcs[c.fn].Entry
		c.regs[isa.SP] = StackBase(t)
		c.l1.Init(cfg.L1Size, cfg.L1Ways, &lines)
		if cfg.Capri {
			u := &m.units[t]
			u.Front.NoMerge = cfg.NoFrontMerge
			u.Front.NoElide = cfg.NoElision
			u.Back.NoMerge = cfg.NoBackMerge
			c.front, c.path, c.back = &u.Front, &u.Path, &u.Back
			c.lines = carveLineTable(slab.Carve(&slots, lineTableSlots, 0))
		}
		m.cores[t] = c

		// Thread launch is itself a persisted event: the initial recovery
		// record points at the entry with the initial register file.
		m.records[t] = CoreRecord{Regs: c.regs, Fn: int32(c.fn), Blk: int32(c.blk)}
	}
	return m, nil
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Program returns the loaded program.
func (m *Machine) Program() *prog.Program { return m.prog }

// Done reports whether every core has halted.
func (m *Machine) Done() bool {
	return m.haltedCores == len(m.cores)
}

// Cycles returns the maximum core cycle count — the parallel makespan the
// paper's figures plot.
func (m *Machine) Cycles() uint64 {
	var max uint64
	for _, c := range m.cores {
		if c.cycle > max {
			max = c.cycle
		}
	}
	return max
}

// Output returns core t's committed (durable) output tape.
func (m *Machine) Output(t int) []uint64 {
	return append([]uint64(nil), m.cores[t].output...)
}

// MemSnapshot returns the architectural memory image (golden comparisons).
func (m *Machine) MemSnapshot() map[uint64]uint64 { return m.mem.Snapshot() }

// Records returns a copy of the NVM-resident per-core recovery records.
func (m *Machine) Records() []CoreRecord {
	return append([]CoreRecord(nil), m.records...)
}

// VerifyDetectable checks the detectability contract on the machine's
// recovery records: every record carrying a sync descriptor must have the
// descriptor's write persisted in NVM at a version at least Sync.Seq — the
// "complete" half of complete-or-absent. (The "absent" half needs no check:
// a descriptor that did not survive constrains nothing.) It returns the
// first violated record's core index, or -1.
func (m *Machine) VerifyDetectable() int {
	for i, rec := range m.records {
		if rec.Sync.Op == 0 {
			continue
		}
		if m.nvm.Peek(rec.Sync.Addr).Seq < rec.Sync.Seq {
			return i
		}
	}
	return -1
}

// NVMSnapshot returns the persisted NVM image.
func (m *Machine) NVMSnapshot() map[uint64]uint64 { return m.nvm.Snapshot() }

// Run executes until every core halts, a crash is injected via RunUntil, or
// the step budget is exhausted. It returns an error on budget exhaustion or
// an internal invariant violation (e.g. back-end proxy overflow).
func (m *Machine) Run() error { return m.run(^uint64(0)) }

// RunUntil executes until the global retired-instruction count reaches
// crashAt, then stops as if power failed. Use Crash() to harvest the
// persistent image. If the program finishes first, no crash occurs.
func (m *Machine) RunUntil(crashAt uint64) error { return m.run(crashAt) }

// Instret returns the total retired instructions across cores.
func (m *Machine) Instret() uint64 {
	var n uint64
	for _, c := range m.cores {
		n += c.instret
	}
	return n
}

func (m *Machine) run(crashAt uint64) error {
	// m.retired is the running sum of every core's instret, maintained by
	// this loop alone: New starts every core at zero and recovery builds
	// fresh cores, so a machine resumed mid-run (RunUntil segments, or Run
	// after a survived crash point) keeps its counter instead of re-summing
	// Instret() per entry. A step retires at most one instruction, so the
	// delta around it is cheap to track.
	// Live telemetry arming, read once per run segment (telemetry.go).
	// The conditional defer means a disarmed run pays exactly one atomic
	// pointer load here and one nil check per scheduler pop below.
	if t := telemetry.ArmedMachine(); t != nil {
		m.telemetryEnter(t)
		defer m.telemetryExit()
	}
	// The run queue orders runnable cores by (cycle, coreID) — the reference
	// per-instruction schedule. Rebuilt per entry: cores may have been
	// resumed, recovered, or left stale by a crash/fatal exit.
	m.rq.reset(m.cores)
	// c is the scheduled core, held OUT of the queue while it runs; the next
	// round re-enqueues it and takes the new minimum in one pushpop pass.
	var c *core
	for !m.Done() {
		if m.fatal != nil {
			return m.fatal
		}
		if m.tele != nil && m.steps-m.telePub.steps >= telePublishEvery {
			m.publishTelemetry(false)
		}
		if m.retired >= crashAt {
			m.crashed = true
			return nil
		}
		if c == nil {
			c = m.rq.pop()
		} else {
			c = m.rq.pushpop(c)
		}
		if c == nil {
			return fmt.Errorf("machine: no runnable core")
		}
		// The strict quantum: the highest cycle at which the scheduler would
		// still pick c for a further instruction, read off the queue's new
		// minimum. A lower-ID core wins a cycle tie, so it caps the budget
		// one cycle earlier; its cycle is strictly above c's here (c was the
		// minimum), so the -1 is safe.
		budget := ^uint64(0)
		if o := m.rq.peek(); o != nil {
			budget = o.cycle
			if o.id < c.id {
				budget--
			}
		}
		for {
			if m.steps >= m.cfg.MaxSteps {
				return fmt.Errorf("machine: step budget exhausted (%d steps, %d instret) — deadlock?", m.steps, m.Instret())
			}
			m.steps++
			if c.front != nil && c.cycle >= c.svcAt {
				m.service(c)
			}
			before := c.instret
			m.step(c)
			m.retired += c.instret - before
			if c.halted || m.fatal != nil || m.retired >= crashAt {
				break
			}
			if c.cycle > budget {
				break
			}
		}
		if c.halted {
			// Halted cores never re-enqueue; the next round pops fresh.
			// Crash/fatal exits leave the queue stale by design.
			c = nil
		}
	}
	// Quiesce: let every pending region finish phase 2 so the NVM image and
	// output tapes are complete.
	m.quiesce()
	return m.fatal
}

// quiesce drains all proxy machinery after the program completes.
func (m *Machine) quiesce() {
	if !m.cfg.Capri {
		return
	}
	for _, c := range m.cores {
		// Push everything out of the front-end and the path.
		for c.front.Len() > 0 || c.path.InFlight() > 0 || c.back.Len() > 0 {
			now := c.cycle + m.cfg.ProxyLatency + m.cfg.ProxyInterval*uint64(m.cfg.FrontEndEntries+2)
			cause := CauseDrainWait
			if c.drainAttempts > 0 {
				// The wait is a drain-retry backoff, not ordinary phase-2
				// bandwidth (fault model).
				cause = CauseDrainRetry
			}
			c.stall(cause, now)
			m.service(c)
			if c.front.Len() > 0 {
				m.drainFront(c)
			}
			if m.fatal != nil {
				return
			}
		}
	}
}
