package machine

// Stats aggregates the counters the benchmark harness reports.
type Stats struct {
	Cycles      uint64
	Instret     uint64
	Steps       uint64
	Stores      uint64 // regular + sync stores retired
	Ckpts       uint64 // checkpoint stores retired
	Boundaries  uint64 // boundary instructions retired
	StallCycles uint64 // cycles lost to proxy backpressure and spin locks

	// CycleBy is the critical core's cycle-accounting ledger: per-cause cycle
	// totals for the core whose cycle count equals Cycles (the makespan).
	// Its entries sum exactly to Cycles, so two runs' CycleBy can be
	// subtracted to decompose their makespan gap with zero residual — that is
	// what `capribench -explain` prints. (Summing ledgers across cores would
	// instead sum to total core-cycles, which is not what the figures plot.)
	CycleBy [NumCycleCauses]uint64

	// Persistence machinery.
	NVMWrites       uint64 // 64B write-queue occupancies (redo + writebacks)
	NVMWordWrites   uint64
	NVMStaleSkips   uint64 // writes dropped by the sequence guard
	FrontAllocs     uint64
	FrontMerges     uint64
	FrontStalls     uint64
	BoundaryEntries uint64
	ElidedBds       uint64
	ScanHits        uint64 // redo valid-bits unset by writeback scans
	WindowHits      uint64 // redo valid-bits unset by the monitoring window
	RedoSkipped     uint64 // phase-2 entries skipped as invalid
	DrainRetries    uint64 // transient NVM write errors retried (fault model)
	DrainExhausted  uint64 // drains that exhausted the retry budget (fault model)

	// Threaded-dispatch decode cache (decode.go; zero under DispatchSwitch).
	DecodeBlocks uint64 // basic blocks translated into thunk runs (cache misses)
	DecodeHits   uint64 // block entries served from the decode cache
	DecodeFused  uint64 // fused superinstructions among the decoded thunks

	// Multi-core scheduler (runq.go; simulator-side only — never affects
	// simulated state).
	SchedQueueOps uint64 // run-queue pushes + pops

	// Dynamic region shape (Figures 10 and 11).
	Regions         uint64
	AvgRegionInsts  float64
	AvgRegionStores float64

	// Cache behaviour.
	L1Hits, L1Misses     uint64
	L2Hits, L2Misses     uint64
	DRAMHits, DRAMMisses uint64
}

// Stats snapshots the machine's counters.
func (m *Machine) Stats() Stats {
	s := Stats{
		Cycles:        m.Cycles(),
		Steps:         m.steps,
		NVMWrites:     m.nvm.Writes,
		NVMWordWrites: m.nvm.WordWrites,
		NVMStaleSkips: m.nvm.StaleSkips,
		L2Hits:        m.l2.Hits,
		L2Misses:      m.l2.Misses,
		DRAMHits:      m.dram.Hits,
		DRAMMisses:    m.dram.Misses,
		SchedQueueOps: m.rq.ops,
	}
	if m.dec != nil {
		s.DecodeBlocks = m.dec.misses
		s.DecodeHits = m.dec.hits
		s.DecodeFused = m.dec.fused
	}
	var crit *core
	for _, c := range m.cores {
		if crit == nil || c.cycle > crit.cycle {
			crit = c
		}
		s.Instret += c.instret
		s.Stores += c.dynStores
		s.Ckpts += c.dynCkpts
		s.Boundaries += c.dynBounds
		s.StallCycles += c.stallCycles
		s.L1Hits += c.l1.Hits
		s.L1Misses += c.l1.Misses
		s.Regions += c.regionsEnded
		s.AvgRegionInsts += float64(c.sumInsts)
		s.AvgRegionStores += float64(c.sumStores)
		if m.cfg.Capri {
			s.FrontAllocs += c.front.Allocs
			s.FrontMerges += c.front.Merges
			s.FrontStalls += c.front.Stalls
			s.BoundaryEntries += c.front.Boundary
			s.ElidedBds += c.front.ElidedBds
			s.ScanHits += c.back.ScanHits
			s.WindowHits += c.path.WindowHits
			s.RedoSkipped += c.back.SkippedInvalid
			s.DrainRetries += c.drainRetries
			s.DrainExhausted += c.drainExhausted
		}
	}
	if crit != nil {
		s.CycleBy = crit.cycleBy
	}
	if s.Regions > 0 {
		s.AvgRegionInsts /= float64(s.Regions)
		s.AvgRegionStores /= float64(s.Regions)
	}
	return s
}
