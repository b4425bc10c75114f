package machine

import (
	"capri/internal/audit"
	"capri/internal/isa"
	"capri/internal/mem"
	"capri/internal/proxy"
)

// Fixed per-opcode issue costs in cycles (beyond memory stalls).
const (
	costALU    = 1
	costMul    = 3
	costDiv    = 12
	costBranch = 1
	costStore  = 1
)

// step executes one instruction on core c, advancing its cycle count and PC.
// Spin-lock retries consume cycles without retiring an instruction.
func (m *Machine) step(c *core) {
	if c.blkFn != c.fn || c.blkId != c.blk {
		c.blkInsts = m.prog.Funcs[c.fn].Blocks[c.blk].Insts
		c.blkFn, c.blkId = c.fn, c.blk
		// The decoded-block cache is keyed by the same (blkFn, blkId) guard;
		// it must never survive a block switch it did not see.
		c.dblk = nil
	}
	if c.idx >= len(c.blkInsts) {
		m.fatalf("core %d: PC f%d b%d idx %d beyond block", c.id, c.fn, c.blk, c.idx)
		return
	}
	in := &c.blkInsts[c.idx]
	// Provisionally count the instruction into the open region's body. Every
	// path below that does NOT retire the instruction (front-end stalls, lock
	// spins) backs this out, and boundary instructions are excluded outright:
	// RegionInsts/sumInsts measure the region's retired body, not dispatch
	// attempts or the delimiter itself.
	if in.Op != isa.OpBoundary {
		c.curInsts++
	}

	advance := true
	switch in.Op {
	case isa.OpAdd:
		c.regs[in.Rd] = c.regs[in.Ra] + c.regs[in.Rb]
		c.tick(CauseExec, costALU)
	case isa.OpSub:
		c.regs[in.Rd] = c.regs[in.Ra] - c.regs[in.Rb]
		c.tick(CauseExec, costALU)
	case isa.OpMul:
		c.regs[in.Rd] = c.regs[in.Ra] * c.regs[in.Rb]
		c.tick(CauseExec, costMul)
	case isa.OpDiv:
		if d := c.regs[in.Rb]; d == 0 {
			c.regs[in.Rd] = 0
		} else {
			c.regs[in.Rd] = uint64(int64(c.regs[in.Ra]) / int64(d))
		}
		c.tick(CauseExec, costDiv)
	case isa.OpRem:
		if d := c.regs[in.Rb]; d == 0 {
			c.regs[in.Rd] = 0
		} else {
			c.regs[in.Rd] = uint64(int64(c.regs[in.Ra]) % int64(d))
		}
		c.tick(CauseExec, costDiv)
	case isa.OpAnd:
		c.regs[in.Rd] = c.regs[in.Ra] & c.regs[in.Rb]
		c.tick(CauseExec, costALU)
	case isa.OpOr:
		c.regs[in.Rd] = c.regs[in.Ra] | c.regs[in.Rb]
		c.tick(CauseExec, costALU)
	case isa.OpXor:
		c.regs[in.Rd] = c.regs[in.Ra] ^ c.regs[in.Rb]
		c.tick(CauseExec, costALU)
	case isa.OpShl:
		c.regs[in.Rd] = c.regs[in.Ra] << (c.regs[in.Rb] & 63)
		c.tick(CauseExec, costALU)
	case isa.OpShr:
		c.regs[in.Rd] = c.regs[in.Ra] >> (c.regs[in.Rb] & 63)
		c.tick(CauseExec, costALU)
	case isa.OpMin:
		if int64(c.regs[in.Ra]) < int64(c.regs[in.Rb]) {
			c.regs[in.Rd] = c.regs[in.Ra]
		} else {
			c.regs[in.Rd] = c.regs[in.Rb]
		}
		c.tick(CauseExec, costALU)
	case isa.OpMax:
		if int64(c.regs[in.Ra]) > int64(c.regs[in.Rb]) {
			c.regs[in.Rd] = c.regs[in.Ra]
		} else {
			c.regs[in.Rd] = c.regs[in.Rb]
		}
		c.tick(CauseExec, costALU)
	case isa.OpAddI:
		c.regs[in.Rd] = c.regs[in.Ra] + uint64(in.Imm)
		c.tick(CauseExec, costALU)
	case isa.OpMulI:
		c.regs[in.Rd] = c.regs[in.Ra] * uint64(in.Imm)
		c.tick(CauseExec, costMul)
	case isa.OpAndI:
		c.regs[in.Rd] = c.regs[in.Ra] & uint64(in.Imm)
		c.tick(CauseExec, costALU)
	case isa.OpShlI:
		c.regs[in.Rd] = c.regs[in.Ra] << (uint64(in.Imm) & 63)
		c.tick(CauseExec, costALU)
	case isa.OpShrI:
		c.regs[in.Rd] = c.regs[in.Ra] >> (uint64(in.Imm) & 63)
		c.tick(CauseExec, costALU)
	case isa.OpMovI:
		c.regs[in.Rd] = uint64(in.Imm)
		c.tick(CauseExec, costALU)
	case isa.OpMov:
		c.regs[in.Rd] = c.regs[in.Ra]
		c.tick(CauseExec, costALU)
	case isa.OpSel:
		if c.regs[in.Ra] != 0 {
			c.regs[in.Rd] = c.regs[in.Rb]
		} else {
			c.regs[in.Rd] = c.regs[in.Rc]
		}
		c.tick(CauseExec, costALU)

	case isa.OpLoad:
		addr := c.regs[in.Ra] + uint64(in.Imm)
		c.regs[in.Rd] = m.mem.Load(addr)
		m.chargeLoad(c, addr)

	case isa.OpStore:
		addr := c.regs[in.Ra] + uint64(in.Imm)
		if !m.doStore(c, addr, c.regs[in.Rb]) {
			c.curInsts--
			return // stalled on the front-end proxy; retry
		}
		c.dynStores++
		c.curStores++

	case isa.OpBr:
		c.tick(CauseExec, costBranch)
		c.blk, c.idx = int(in.Target), 0
		c.instret++
		return
	case isa.OpBrIf:
		c.tick(CauseExec, costBranch)
		if in.Cond.Eval(c.regs[in.Ra], c.regs[in.Rb]) {
			c.blk = int(in.Target)
		} else {
			c.blk = int(in.Else)
		}
		c.idx = 0
		c.instret++
		return

	case isa.OpCall:
		// Push the return token through the persisted stack, then jump.
		c.regs[isa.SP] -= mem.WordSize
		if !m.doStore(c, c.regs[isa.SP], uint64(in.Imm)) {
			c.regs[isa.SP] += mem.WordSize // undo; retry whole instruction
			c.curInsts--
			return
		}
		c.dynStores++
		c.curStores++
		c.tick(CauseExec, costBranch)
		callee := m.prog.Funcs[in.Callee]
		c.fn, c.blk, c.idx = int(in.Callee), callee.Entry, 0
		c.instret++
		return
	case isa.OpRet:
		tok := m.mem.Load(c.regs[isa.SP])
		m.chargeLoad(c, c.regs[isa.SP])
		c.regs[isa.SP] += mem.WordSize
		if tok >= uint64(len(m.prog.RetSites)) {
			m.fatalf("core %d: corrupt return token %d", c.id, tok)
			return
		}
		rs := m.prog.RetSites[tok]
		c.fn, c.blk, c.idx = rs.Func, rs.Block, rs.Index
		c.instret++
		return
	case isa.OpHalt:
		if !m.commitRegion(c, int32(c.fn), int32(c.blk), int32(c.idx), true, true) {
			c.curInsts--
			return // front-end full; retry
		}
		c.halted = true
		m.haltedCores++
		c.instret++
		c.endRegionStats()
		return

	case isa.OpFence:
		// Ordering is implicit in this in-order-retire functional model; a
		// fence is a region boundary (compiler) plus a pipeline bubble.
		c.tick(CauseFence, 4)

	case isa.OpAtomicAdd:
		addr := c.regs[in.Ra] + uint64(in.Imm)
		old := m.mem.Load(addr)
		if !m.doSyncStore(c, in, addr, old+c.regs[in.Rb], in.Rd, old) {
			c.curInsts--
			return
		}
	case isa.OpAtomicCAS:
		addr := c.regs[in.Ra] + uint64(in.Imm)
		old := m.mem.Load(addr)
		if old == c.regs[in.Rb] {
			if !m.doSyncStore(c, in, addr, c.regs[in.Rc], in.Rd, old) {
				c.curInsts--
				return
			}
		} else {
			c.regs[in.Rd] = old
			c.tick(CauseSync, m.cfg.L1Hit+costALU)
		}
	case isa.OpLock:
		addr := c.regs[in.Ra] + uint64(in.Imm)
		if m.mem.Load(addr) != 0 {
			// Spin: consume back-off cycles, do not retire.
			c.stall(CauseLockSpin, c.cycle+m.cfg.LockRetry)
			c.curInsts--
			return
		}
		if !m.doSyncStore(c, in, addr, 1, 0, 0) {
			c.curInsts--
			return
		}
	case isa.OpUnlock:
		addr := c.regs[in.Ra] + uint64(in.Imm)
		if !m.doSyncStore(c, in, addr, 0, 0, 0) {
			c.curInsts--
			return
		}
	case isa.OpBarrier:
		// Reserved: multi-threaded workloads build barriers from atomics so
		// they are recoverable; a bare OpBarrier acts as a fence.
		c.tick(CauseFence, 4)

	case isa.OpEmit:
		c.stagedEmits = append(c.stagedEmits, c.regs[in.Ra])
		c.tick(CauseExec, costALU)

	case isa.OpBoundary:
		// Commit the region that just ended; the new region resumes after
		// this instruction. Boundaries serialize the store buffer into the
		// front-end proxy, costing a couple of pipeline slots.
		if !m.commitRegion(c, int32(c.fn), int32(c.blk), int32(c.idx+1), false, false) {
			return // front-end full; retry
		}
		c.dynBounds++
		c.endRegionStats()
		c.tick(CauseBoundary, 2*costALU)

	case isa.OpCkpt:
		if m.cfg.Capri {
			c.front.StageCkpt(in.Ra, c.regs[in.Ra])
		}
		c.dynCkpts++
		c.curStores++
		c.tick(CauseCkpt, 2*costStore) // register read + staging-storage port

	default:
		m.fatalf("core %d: cannot execute %s", c.id, in)
		return
	}

	if advance {
		c.idx++
		c.instret++
	}
}

// doStore performs a regular store: architectural update, proxy entry
// (undo+redo), cache timing. Returns false if the front-end proxy is full —
// the caller must leave the PC unchanged so the instruction retries after
// the drain catches up.
func (m *Machine) doStore(c *core, addr uint64, val uint64) bool {
	addr = mem.WordAddr(addr)
	if m.cfg.Capri {
		m.service(c)
		undo := m.mem.Load(addr)
		m.seq++
		mergesBefore := c.front.Merges
		if !c.front.AddStore(addr, undo, val, m.seq) {
			// Stall until the next path departure slot frees an entry.
			stall := c.path.Backlog() + m.cfg.ProxyInterval
			if stall <= c.cycle {
				stall = c.cycle + m.cfg.ProxyInterval
			}
			c.stall(m.frontStallCause(c), stall)
			m.seq-- // the store did not happen
			if m.tap != nil {
				m.tap.Tap(audit.Event{Kind: audit.EvStall, Core: int32(c.id), Cycle: c.cycle})
			}
			return false
		}
		c.regionStores = true
		// New front entry: it cannot depart before the next departure slot,
		// so folding that slot into the horizon keeps it exact.
		if b := c.path.Backlog(); b < c.svcAt {
			c.svcAt = b
		}
		if m.tap != nil {
			m.tapStore(c, addr, val, undo, c.front.Merges > mergesBefore)
		}
		m.mem.Store(addr, val)
		c.tick(CauseStore, m.storeAccess(c, addr, m.seq)+costStore)
		return true
	}
	m.seq++
	m.mem.Store(addr, val)
	c.tick(CauseStore, m.storeAccess(c, addr, m.seq)+costStore)
	return true
}

// doSyncStore executes the memory write of a synchronization instruction
// (atomic add/CAS, lock, unlock) and commits it atomically with its own
// region: the data entry and the commit marker enter the non-volatile
// front-end as one indivisible step, so a crash can never observe the sync's
// effect without its commit (see DESIGN.md on cross-core recovery).
//
// rd receives old when the instruction defines a register (atomics); the
// defined value is staged as a checkpoint inside the same commit so recovery
// resuming right after the sync sees it.
func (m *Machine) doSyncStore(c *core, in *isa.Inst, addr, newVal uint64, rd isa.Reg, old uint64) bool {
	addr = mem.WordAddr(addr)
	_ = rd // the defining register is recovered via in.Def()
	if !m.cfg.Capri {
		m.seq++
		m.mem.Store(addr, newVal)
		if d, ok := in.Def(); ok {
			c.regs[d] = old
		}
		c.tick(CauseSync, m.storeAccess(c, addr, m.seq)+costDiv)
		return true
	}
	m.service(c)
	// Need space for the data entry and the marker.
	if c.front.Len()+2 > c.front.Capacity {
		stall := c.path.Backlog() + 2*m.cfg.ProxyInterval
		if stall <= c.cycle {
			stall = c.cycle + 2*m.cfg.ProxyInterval
		}
		c.stall(m.frontStallCause(c), stall)
		return false
	}
	undo := m.mem.Load(addr)
	m.seq++
	mergesBefore := c.front.Merges
	if !c.front.AddStore(addr, undo, newVal, m.seq) {
		m.seq--
		return false
	}
	c.regionStores = true
	if b := c.path.Backlog(); b < c.svcAt {
		c.svcAt = b // new front entry: fold in the next departure slot
	}
	if m.tap != nil {
		m.tapStore(c, addr, newVal, undo, c.front.Merges > mergesBefore)
	}
	m.mem.Store(addr, newVal)
	c.tick(CauseSync, m.storeAccess(c, addr, m.seq)+costDiv)
	c.dynStores++
	c.curStores++

	if d, ok := in.Def(); ok {
		c.regs[d] = old
		c.front.StageCkpt(d, old)
	}
	// Stage the detectability descriptor: it travels with the boundary entry
	// and lands in the core's recovery record when the boundary drains, so a
	// recovered image always proves the sync either complete (descriptor
	// present, write persisted at Seq) or absent (neither survives).
	c.front.StageSync(proxy.SyncRec{
		Op: uint8(in.Op), Addr: addr, Old: old, New: newVal, Seq: m.seq,
	})
	if m.tap != nil {
		// The sync's persist-order event, emitted before its commit marker:
		// the cross-core audit rules require the very next commit on this
		// core to seal this region (audit package, sync-unordered-commit).
		m.tap.Tap(audit.Event{
			Kind: audit.EvSync, Core: int32(c.id), Cycle: c.cycle,
			Addr: addr, Seq: m.seq, Region: c.regionSeq + 1, Val: newVal, Val2: old,
		})
	}
	// Atomic commit: the marker follows the data entry indivisibly; resume
	// point is the instruction after the sync.
	if !m.commitRegion(c, int32(c.fn), int32(c.blk), int32(c.idx+1), true, false) {
		m.fatalf("core %d: sync commit failed with reserved space", c.id)
		return false
	}
	c.endRegionStats()
	return true
}

// commitRegion emits the boundary (commit marker) for the region that just
// ended. Returns false when the front-end is full and the caller must retry.
func (m *Machine) commitRegion(c *core, fn, blk, idx int32, force, halt bool) bool {
	if !m.cfg.Capri {
		c.stagedEmits = commitEmitsDirect(c, c.stagedEmits)
		return true
	}
	m.service(c)
	c.regionSeq++
	ok, elided := c.front.AddBoundary(c.regionSeq, fn, blk, idx, c.regs[isa.SP],
		c.stagedEmits, c.regionStores, force || len(c.stagedEmits) > 0, halt)
	if !ok {
		c.regionSeq--
		stall := c.path.Backlog() + m.cfg.ProxyInterval
		if stall <= c.cycle {
			stall = c.cycle + m.cfg.ProxyInterval
		}
		c.stall(m.frontStallCause(c), stall)
		return false
	}
	c.stagedEmits = c.stagedEmits[:0]
	c.regionStores = false
	if b := c.path.Backlog(); b < c.svcAt {
		c.svcAt = b // new (or elided) boundary: fold in the next departure slot
	}
	if m.metrics != nil {
		m.sampleBoundary(c, elided)
	}
	if m.tap != nil {
		ev := audit.Event{Kind: audit.EvCommit, Core: int32(c.id), Cycle: c.cycle, Region: c.regionSeq}
		if elided {
			ev.Flags |= audit.FlagElided
		}
		if halt {
			ev.Flags |= audit.FlagHalt
		}
		m.tap.Tap(ev)
	}
	return true
}

// tapStore emits the EvStore provenance event for a store that just entered
// the front-end. The store belongs to the still-open region c.regionSeq+1.
func (m *Machine) tapStore(c *core, addr, redo, undo uint64, merged bool) {
	ev := audit.Event{
		Kind: audit.EvStore, Core: int32(c.id), Cycle: c.cycle,
		Addr: addr, Seq: m.seq, Region: c.regionSeq + 1, Val: redo, Val2: undo,
	}
	if merged {
		ev.Flags |= audit.FlagMerged
	}
	m.tap.Tap(ev)
}

// commitEmitsDirect moves staged emits straight to the output tape (baseline
// machine without persistence).
func commitEmitsDirect(c *core, emits []uint64) []uint64 {
	c.output = append(c.output, emits...)
	return emits[:0]
}

// endRegionStats closes the current dynamic region for Figures 10/11.
func (c *core) endRegionStats() {
	if c.curInsts == 0 && c.curStores == 0 {
		return
	}
	c.sumInsts += c.curInsts
	c.sumStores += c.curStores
	c.regionsEnded++
	c.curInsts = 0
	c.curStores = 0
}

// resumeAt positions a recovered core (used by the recovery package). The
// new PC may live in a different program generation than whatever the block
// caches hold, so both the block-inst cache and the pre-decoded thunk cache
// are invalidated here — stale decoded code must never execute after state is
// reinstalled.
func (c *core) resumeAt(rec CoreRecord) {
	c.regs = rec.Regs
	c.fn, c.blk, c.idx = int(rec.Fn), int(rec.Blk), int(rec.Idx)
	c.regionSeq = rec.Region
	c.halted = rec.Halted
	c.svcAt = 0 // recovered proxy state: recompute the horizon from scratch
	c.invalidateBlockCache()
}

// invalidateBlockCache drops the per-core current-block caches: the raw
// instruction slice the switch core reads and the decoded thunk run the
// threaded core dispatches. Both refresh lazily from m.prog on next dispatch.
func (c *core) invalidateBlockCache() {
	c.blkFn, c.blkId = -1, -1
	c.blkInsts = nil
	c.dblk = nil
}

// execSlice evaluates a recovery slice over a register file (paper §4.4.1's
// recovery block). Only re-executable instructions may appear.
func execSlice(regs *[isa.NumRegs]uint64, slice []isa.Inst) {
	for i := range slice {
		execOne(regs, &slice[i])
	}
}

// execOne evaluates one re-executable (register-local) instruction. It is the
// shared functional core of recovery-slice evaluation and the threaded
// dispatcher's fused ALU runs; non-re-executable opcodes are ignored.
func execOne(regs *[isa.NumRegs]uint64, in *isa.Inst) {
	switch in.Op {
	case isa.OpAdd:
		regs[in.Rd] = regs[in.Ra] + regs[in.Rb]
	case isa.OpSub:
		regs[in.Rd] = regs[in.Ra] - regs[in.Rb]
	case isa.OpMul:
		regs[in.Rd] = regs[in.Ra] * regs[in.Rb]
	case isa.OpDiv:
		if d := regs[in.Rb]; d == 0 {
			regs[in.Rd] = 0
		} else {
			regs[in.Rd] = uint64(int64(regs[in.Ra]) / int64(d))
		}
	case isa.OpRem:
		if d := regs[in.Rb]; d == 0 {
			regs[in.Rd] = 0
		} else {
			regs[in.Rd] = uint64(int64(regs[in.Ra]) % int64(d))
		}
	case isa.OpAnd:
		regs[in.Rd] = regs[in.Ra] & regs[in.Rb]
	case isa.OpOr:
		regs[in.Rd] = regs[in.Ra] | regs[in.Rb]
	case isa.OpXor:
		regs[in.Rd] = regs[in.Ra] ^ regs[in.Rb]
	case isa.OpShl:
		regs[in.Rd] = regs[in.Ra] << (regs[in.Rb] & 63)
	case isa.OpShr:
		regs[in.Rd] = regs[in.Ra] >> (regs[in.Rb] & 63)
	case isa.OpMin:
		if int64(regs[in.Ra]) < int64(regs[in.Rb]) {
			regs[in.Rd] = regs[in.Ra]
		} else {
			regs[in.Rd] = regs[in.Rb]
		}
	case isa.OpMax:
		if int64(regs[in.Ra]) > int64(regs[in.Rb]) {
			regs[in.Rd] = regs[in.Ra]
		} else {
			regs[in.Rd] = regs[in.Rb]
		}
	case isa.OpAddI:
		regs[in.Rd] = regs[in.Ra] + uint64(in.Imm)
	case isa.OpMulI:
		regs[in.Rd] = regs[in.Ra] * uint64(in.Imm)
	case isa.OpAndI:
		regs[in.Rd] = regs[in.Ra] & uint64(in.Imm)
	case isa.OpShlI:
		regs[in.Rd] = regs[in.Ra] << (uint64(in.Imm) & 63)
	case isa.OpShrI:
		regs[in.Rd] = regs[in.Ra] >> (uint64(in.Imm) & 63)
	case isa.OpMovI:
		regs[in.Rd] = uint64(in.Imm)
	case isa.OpMov:
		regs[in.Rd] = regs[in.Ra]
	case isa.OpSel:
		if regs[in.Ra] != 0 {
			regs[in.Rd] = regs[in.Rb]
		} else {
			regs[in.Rd] = regs[in.Rc]
		}
	}
}

// aluCost returns the fixed issue cost of a re-executable instruction.
func aluCost(op isa.Op) uint64 {
	switch op {
	case isa.OpMul, isa.OpMulI:
		return costMul
	case isa.OpDiv, isa.OpRem:
		return costDiv
	}
	return costALU
}
