package machine

import (
	"fmt"

	"capri/internal/audit"
	"capri/internal/cache"
	"capri/internal/isa"
	"capri/internal/mem"
	"capri/internal/proxy"
)

// chargeLoad walks the hierarchy for a load by core c and charges the stall
// to the core, attributed to the level that served the access. Post-L1
// latency is divided by LoadOverlap to stand in for OoO memory-level
// parallelism.
func (m *Machine) chargeLoad(c *core, addr uint64) {
	hit, wb := c.l1.Access(addr, false, 0, c.id)
	if wb != nil {
		m.l1Writeback(c, wb)
	}
	if hit {
		c.tick(CauseLoadL1, m.cfg.L1Hit)
		return
	}
	l2hit, l2wb := m.l2.Access(addr, false, 0, c.id)
	if l2wb != nil {
		m.controllerWriteback(c.cycle, l2wb)
	}
	if l2hit {
		c.tick(CauseLoadL2, m.cfg.L1Hit+m.cfg.L2Hit/m.cfg.LoadOverlap)
		return
	}
	if m.dram.Access(addr) {
		c.tick(CauseLoadDRAM, m.cfg.L1Hit+m.cfg.DRAMHit/m.cfg.LoadOverlap)
		return
	}
	c.tick(CauseLoadNVM, m.cfg.L1Hit+m.cfg.NVMRead/m.cfg.LoadOverlap)
	if m.tap != nil {
		wa := mem.WordAddr(addr)
		w := m.nvm.Peek(wa)
		m.tap.Tap(audit.Event{
			Kind: audit.EvNVMRead, Core: int32(c.id), Cycle: c.cycle,
			Addr: wa, Seq: w.Seq, Val: w.Val, Val2: m.mem.Load(wa),
		})
	}
}

// frontStallCause classifies a front-end-proxy-full stall by its root cause:
// the buffer cannot drain either because the back-end (plus in-flight
// packets) has no room for its oldest data entry — back-pressure, further
// split into waiting-on-the-WPQ when a phase-2 drain is already booked — or
// because the proxy path has no departure slot (plain front-full).
func (m *Machine) frontStallCause(c *core) CycleCause {
	if c.front.Len() > 0 && c.front.Peek().Kind == proxy.KindData &&
		c.back.Len()+c.path.InFlight() >= m.cfg.Threshold {
		if c.back.Booked() > 0 {
			if c.drainAttempts > 0 {
				return CauseDrainRetry
			}
			return CauseNVMQueue
		}
		return CauseBackPressure
	}
	return CauseFrontFull
}

// sampleBoundary records the occupancy histograms at a committed region
// boundary (metrics enabled only — this is the observability layer's main
// sampling point; boundaries are frequent enough to characterize the
// distributions and rare enough to keep the overhead negligible).
func (m *Machine) sampleBoundary(c *core, elided bool) {
	mt := m.metrics
	mt.FrontOcc.Record(uint64(c.front.Len()))
	mt.BackOcc.Record(uint64(c.back.Len()))
	mt.PathInFlight.Record(uint64(c.path.InFlight()))
	mt.WindowLive.Record(uint64(m.window.Len()))
	mt.L1Dirty.Record(uint64(c.l1.DirtyLines()))
	mt.RegionInsts.Record(c.curInsts)
	mt.RegionStores.Record(c.curStores)
	if !elided {
		// Pair this boundary with its eventual phase-2 completion (FIFO per
		// core), for the commit-latency histogram.
		c.commitCycles = append(c.commitCycles, c.cycle)
	}
}

// storeAccess updates the timing caches for a store by core c with global
// sequence seq and returns the (small) cost charged to the core: stores
// retire through the store buffer and only the proxy machinery can stall
// them.
func (m *Machine) storeAccess(c *core, addr uint64, seq uint64) uint64 {
	// Invalidate other cores' copies (write-invalidate coherence). Their
	// dirty data flows down like a writeback.
	for _, o := range m.cores {
		if o != c {
			if wb := o.l1.Invalidate(addr); wb != nil {
				m.l1Writeback(o, wb)
			}
		}
	}
	_, wb := c.l1.Access(addr, true, seq, c.id)
	if wb != nil {
		m.l1Writeback(c, wb)
	}
	return 1
}

// l1Writeback sends an evicted dirty L1 line into the shared L2.
func (m *Machine) l1Writeback(c *core, wb *cache.Writeback) {
	// Install in L2 as dirty; L2 victim (if dirty) goes to the controller.
	for _, w := range wb.Words {
		_, l2wb := m.l2.Access(w, true, wb.Seq, wb.Core)
		if l2wb != nil {
			m.controllerWriteback(c.cycle, l2wb)
		}
	}
}

// controllerWriteback handles a dirty line arriving at the integrated memory
// controller: it propagates to NVM through the write queue (seq-guarded),
// fills the DRAM cache, scans every back-end proxy buffer to unset matching
// redo valid-bits (§5.3.2), and opens the controller's monitoring window.
// The values written are the architectural values of the dirty words — the
// newest stores the line absorbed, which is exactly what wb.Seq tags.
func (m *Machine) controllerWriteback(now uint64, wb *cache.Writeback) {
	m.dram.Fill(wb.Line)
	depth := m.nvm.BookLineWrite(now, m.cfg.NVMWrite)
	if m.metrics != nil {
		m.metrics.WPQDepth.Record(depth)
	}
	m.nvm.Writes++
	if m.tap != nil {
		m.tap.Tap(audit.Event{
			Kind: audit.EvWriteback, Core: int32(wb.Core), Cycle: now,
			Addr: wb.Line, Seq: wb.Seq,
		})
	}
	var torn []tornWord // applied word writes, journaled when faults are armed
	for _, w := range wb.Words {
		val := m.mem.Load(w)
		var old mem.Word
		if m.flt != nil {
			old = m.nvm.Peek(w)
		}
		applied := m.nvm.Write(w, val, wb.Seq)
		if m.flt != nil {
			// This write supersedes any journaled earlier write of the word
			// (same-address WPQ ordering), whether the guard applied it or not.
			m.flt.confirm(w)
			if applied {
				torn = append(torn, tornWord{addr: w, old: old, new: mem.Word{Val: val, Seq: wb.Seq}})
			}
		}
		if m.tap != nil {
			ev := audit.Event{
				Kind: audit.EvWritebackWord, Core: int32(wb.Core), Cycle: now,
				Addr: w, Seq: wb.Seq, Val: val,
			}
			if applied {
				ev.Flags |= audit.FlagApplied
			}
			m.tap.Tap(ev)
		}
		if m.cfg.Capri && !m.cfg.NoScanInvalidate {
			// The §5.3.2 scan elides redo writes because NVM "already
			// holds" the writeback's data — an ADR assumption. Under the
			// armed fault model this writeback is still in the tearable
			// WPQ window, so the elision is unsound (a torn writeback would
			// orphan committed data whose redo entry it invalidated); the
			// seq guard makes the un-elided redo writes idempotent.
			if m.flt == nil {
				for _, c := range m.cores {
					c.back.ScanInvalidate(w, wb.Seq)
				}
			}
			m.window.Note(w, wb.Seq, now)
		}
	}
	if m.flt != nil && len(torn) > 0 {
		m.flt.noteLineWrite(wb.Line, now, wb.Seq, torn)
	}
}

// service advances core c's background persistence machinery to its current
// cycle: deliver proxy-path packets into the back-end, retire finished
// phase-2 drains, and move front-end entries onto the path while space
// remains downstream.
func (m *Machine) service(c *core) {
	if !m.cfg.Capri {
		return
	}
	now := c.cycle

	// Retire finished phase-2 drains: each booking is popped with its
	// region.
	for {
		if done, ok := c.back.NextDrain(); !ok || done > now {
			break
		}
		if m.flt != nil && m.flt.drainError != nil && !m.retryDrain(c, now) {
			break // transient write error: re-booked with backoff, or fatal
		}
		if c.drainAttempts > 0 {
			if m.metrics != nil {
				m.metrics.DrainRetries.Record(uint64(c.drainAttempts))
			}
			c.drainAttempts = 0
		}
		region, ok := c.back.PopRegion()
		if !ok {
			m.fatalf("core %d: drain scheduled but no region buffered", c.id)
			return
		}
		m.applyPhase2(c, region)
	}

	// Deliver arrived packets into the back-end (zero-copy: the callback gets
	// a pointer into the wire buffer, and AcceptFrom copies it exactly once,
	// into the back-end ring).
	c.path.DeliverEach(now, func(r *proxy.Rec, b *proxy.Boundary, arrives uint64, hit bool) {
		if m.tap != nil {
			m.tapArrive(c, r, b, arrives, hit)
		}
		if b == nil {
			c.inflightData--
		}
		if !c.back.AcceptFrom(r) {
			m.fatalf("core %d: back-end proxy overflow (threshold %d)", c.id, m.cfg.Threshold)
			return
		}
		if b != nil {
			m.scheduleDrain(c, now)
		}
	})
	if m.fatal != nil {
		return
	}

	// Drain the front-end while the path has bandwidth and the back-end
	// (plus in-flight packets) has room.
	m.drainFront(c)
}

// tapArrive emits the EvBackArrive event of record r (boundary b, nil for
// data) reaching c's back-end at its wire-arrival cycle; hit is the
// monitoring window's verdict.
func (m *Machine) tapArrive(c *core, r *proxy.Rec, b *proxy.Boundary, arrives uint64, hit bool) {
	ev := audit.Event{Kind: audit.EvBackArrive, Core: int32(c.id), Cycle: c.cycle, Val: arrives}
	if b != nil {
		ev.Flags |= audit.FlagBoundary
		ev.Region = b.Region
	} else {
		ev.Addr, ev.Seq = r.Addr, r.Seq
		if r.Valid {
			ev.Flags |= audit.FlagValid
		}
		if hit {
			ev.Flags |= audit.FlagWindowHit
		}
	}
	m.tap.Tap(ev)
}

// recomputeSvc refreshes core c's service event horizon after service ran:
// the earliest cycle at which any service phase could act again. A front-end
// blocked purely on back-end space can only unblock at a drain retirement,
// which the next-drain term already covers.
func (m *Machine) recomputeSvc(c *core) {
	next := ^uint64(0)
	if d, ok := c.back.NextDrain(); ok {
		next = d
	}
	if a, ok := c.path.HeadArrival(); ok && a < next {
		next = a
	}
	if c.front.Len() > 0 {
		if c.front.Peek().Kind == proxy.KindData &&
			c.back.Len()+c.path.InFlight() >= m.cfg.Threshold {
			// Back-pressure: nothing departs until a drain retires.
		} else if d := c.path.Backlog(); d < next {
			next = d
		}
	}
	c.svcAt = next
}

// drainFront moves entries from the front-end onto the proxy path. It is the
// last phase of service (and of quiesce's pump), so it also refreshes the
// service event horizon on every exit path.
func (m *Machine) drainFront(c *core) {
	defer m.recomputeSvc(c)
	now := c.cycle
	for c.front.Len() > 0 {
		if c.path.Backlog() > now {
			return // no departure slot yet
		}
		e := c.front.Peek()
		if e.Kind == proxy.KindData {
			// Reserve back-end space including packets already in flight.
			if c.back.Len()+c.path.InFlight() >= m.cfg.Threshold {
				return
			}
			c.inflightData++
		}
		depart := c.path.SendFrom(e, now)
		if m.tap != nil {
			ev := audit.Event{Kind: audit.EvLaunch, Core: int32(c.id), Cycle: now, Val: depart}
			if e.Kind == proxy.KindBoundary {
				ev.Flags |= audit.FlagBoundary
				ev.Region = c.front.BoundaryOf(e).Region
			} else {
				ev.Addr, ev.Seq = e.Addr, e.Seq
			}
			m.tap.Tap(ev)
		}
		c.front.DropHead()
	}
}

// scheduleDrain books NVM write-queue time for the newest complete region in
// c's back-end and records its completion cycle beside the region's marker.
// Phase-2 traffic drains through the core's own bank of the write-pending
// queue (per-core back-end buffers feed per-bank channels), and the WPQ
// coalesces word entries into 64B lines, so the occupancy charged is per
// distinct line touched by the region's valid entries.
func (m *Machine) scheduleDrain(c *core, now uint64) {
	// The regions already booked are the oldest buffered ones.
	region, ok := c.back.Region(c.back.Booked())
	if !ok {
		m.fatalf("core %d: boundary arrived but no region to book", c.id)
		return
	}
	// The boundary's marker (checkpoints + PC record) is one queue occupancy
	// plus one per 8 ckpts. Count distinct lines with the core's
	// epoch-stamped scratch table (scratch.go): O(1) per entry at every
	// region size, no allocation in steady state.
	writes := 1 + uint64(len(region.Ckpts))/8
	c.lines.reset()
	for i := range region.Data {
		if e := &region.Data[i]; e.Valid && c.lines.add(mem.LineAddr(e.Addr)) {
			writes++
		}
	}
	start := c.drainFree
	if start < now {
		start = now
	}
	if m.metrics != nil && m.cfg.NVMEntryWrite > 0 {
		// Depth of this core's phase-2 WPQ bank in pending entry-writes,
		// including the region just booked.
		m.metrics.DrainQueue.Record((start-now+m.cfg.NVMEntryWrite-1)/m.cfg.NVMEntryWrite + writes)
	}
	finish := start + writes*m.cfg.NVMEntryWrite
	c.drainFree = finish
	c.back.Book(finish)
}

// applyPhase2 performs the functional half of the second phase: valid redo
// data moves to NVM, the recovery record absorbs the boundary's checkpoint
// payload, and staged emits become durable output.
func (m *Machine) applyPhase2(c *core, region proxy.CommittedRegion) {
	if m.tap != nil {
		var lo, hi uint64
		entries := 0
		for i := range region.Data {
			if e := &region.Data[i]; e.Valid {
				if entries == 0 || e.Addr < lo {
					lo = e.Addr
				}
				if e.Addr > hi {
					hi = e.Addr
				}
				entries++
			}
		}
		m.tap.Tap(audit.Event{
			Kind: audit.EvDrain, Core: int32(c.id), Cycle: c.cycle,
			Region: region.Boundary.Region, Val: lo, Val2: hi, Count: uint32(entries),
		})
	}
	if m.metrics != nil && len(c.commitCycles) > 0 {
		// Oldest queued boundary commit pairs with this drain (FIFO per core).
		m.metrics.CommitLat.Record(c.cycle - c.commitCycles[0])
		n := copy(c.commitCycles, c.commitCycles[1:])
		c.commitCycles = c.commitCycles[:n]
	}
	for i := range region.Data {
		e := &region.Data[i]
		if !e.Valid {
			c.back.SkippedInvalid++
			continue
		}
		var applied bool
		if Mutations.DrainNoGuard {
			// Mutation: bypass the sequence guard, letting a slow core's
			// stale drain clobber a newer committed value.
			m.nvm.Restore(e.Addr, e.Redo, e.Seq)
			applied = true
		} else {
			applied = m.nvm.Write(e.Addr, e.Redo, e.Seq)
		}
		m.nvm.Writes++
		if m.flt != nil {
			// Applied or elided, this drain write orders any journaled earlier
			// write of the word ahead of it — no longer tearable.
			m.flt.confirm(e.Addr)
		}
		if m.tap != nil {
			ev := audit.Event{
				Kind: audit.EvDrainWrite, Core: int32(c.id), Cycle: c.cycle,
				Addr: e.Addr, Seq: e.Seq, Region: region.Boundary.Region, Val: e.Redo,
			}
			if applied {
				ev.Flags |= audit.FlagApplied
			}
			m.tap.Tap(ev)
		}
	}
	m.applyMarker(c.id, region.Boundary, region.Ckpts, region.Emits)
}

// applyMarker folds a committed boundary and its payloads into core t's NVM
// recovery record and durable output.
func (m *Machine) applyMarker(t int, b *proxy.Boundary, ckpts []proxy.RegCkpt, emits []uint64) {
	rec := &m.records[t]
	if b.Region <= rec.Region {
		// The record already absorbed this marker: a recovery interrupted by
		// a nested crash replays markers a previous pass applied. Folding is
		// idempotent for the register/PC payload but NOT for the emits —
		// exactly-once output delivery requires skipping the whole fold.
		// (Region numbers are per-core, start at 1, and strictly increase,
		// so this guard never fires during normal phase-2 operation.)
		return
	}
	for _, ck := range ckpts {
		rec.Regs[ck.Reg] = ck.Val
	}
	rec.Regs[isa.SP] = b.SP
	rec.Fn, rec.Blk, rec.Idx = b.PCFunc, b.PCBlk, b.PCIdx
	rec.Region = b.Region
	if b.Sync.Op != 0 {
		// The boundary sealed a synchronizing store: its operation descriptor
		// becomes part of the durable recovery record (detectability — the op
		// is now provably complete; before this fold it was provably absent).
		rec.Sync = b.Sync
	}
	if b.Halt {
		rec.Halted = true
	}
	if len(emits) > 0 {
		m.cores[t].output = append(m.cores[t].output, emits...)
		for _, d := range m.devices {
			for _, v := range emits {
				d.Output(t, v)
			}
		}
	}
}

func (m *Machine) fatalf(format string, args ...interface{}) {
	if m.fatal == nil {
		m.fatal = fmt.Errorf(format, args...)
	}
}
