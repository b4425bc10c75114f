package machine

import (
	"capri/internal/isa"
	"capri/internal/prog"
	"capri/internal/slab"
)

// This file is the pre-decoded threaded-code execution core (DispatchThreaded,
// the default). The decode unit is the basic block — the same unit the
// per-core block-inst cache already tracked — translated once, on first entry,
// into a slice of specialized op thunks (dop). The hottest instruction shapes
// the 19-benchmark suite exhibits (straight-line ALU/load runs feeding a
// store, a compare-and-branch, or an unconditional branch) become fused
// superinstructions: one thunk dispatch executes the whole run and issues the
// timing-model update as a single batched tick.
//
// The threaded core is required to be observationally identical to the switch
// core in exec.go: same cycles, same per-cause ledger sums, same audit event
// stream, same NVM image, same crash/recovery behavior. The arguments, which
// the dispatch differential suite checks end to end:
//
//   - Ledger exactness. tick(cause, n) is the only way cycles advance, and a
//     fused run's interior consists solely of non-stalling ops with fixed
//     costs. Summing k CauseExec costs into one tick leaves both c.cycle and
//     cycleBy[CauseExec] exactly as k individual ticks would — the zero
//     residual `capribench -explain -verify` checks is preserved by
//     construction. The only interior observer of c.cycle mid-run is a load
//     (controllerWriteback books NVM write-queue time at c.cycle, and the
//     EvNVMRead event is stamped with it), so accumulated exec cycles are
//     flushed before every load.
//   - Proxy service. The per-instruction core calls m.service(c) before every
//     instruction, but service(c) is provably a no-op strictly before the
//     core's service event horizon (c.svcAt, memsys.go): the earliest of the
//     next drain completion, the next proxy-path arrival, and the next
//     departure slot. The interior loop therefore checks one comparison per
//     op — true cycle (c.cycle plus the batched-tick accumulator) against the
//     horizon — flushes the accumulator and services exactly when the switch
//     core's per-instruction service would have done work, and skips it
//     everywhere else. Events that move the horizon from outside service
//     (a store or boundary entering the front-end) fold the new departure
//     slot into c.svcAt at the mutation site.
//   - Scheduling. The machine's scheduler runs the minimum-cycle core with
//     ties to the lowest ID. A fused run is dispatched only when its
//     worst-case interior cycle consumption cannot make another core the
//     scheduler's pick mid-run (see the quantum budget in machine.go's run
//     loop); otherwise the block single-steps on the switch core.
//   - Crash points. RunUntil needs per-instruction retire granularity around
//     the crash point, so the run loop stops using fused dispatch within
//     maxFuseLen+1 retired instructions of it.
//   - Resume points. Recovery (and a stalled fused tail store) can land the
//     PC in the interior of a fused run. The source-index → thunk map marks
//     interior indices with -1, and dispatch falls back to the switch core
//     until the PC re-reaches a thunk head.
const maxFuseLen = 32

// dop is one decoded op thunk: a direct-dispatched function with its operands
// pre-extracted at decode time.
type dop struct {
	run func(m *Machine, c *core, d *dop)

	// slice is the fused run's interior: a straight-line sequence of
	// non-stalling local ops (re-executable ALU ops, loads, emits, fences,
	// register checkpoints). nil/empty for singles.
	slice []isa.Inst
	// in is the source instruction of a single or of a fused tail
	// (store/branch); nil for a pure run.
	in *isa.Inst
	// cost is the pre-summed CauseExec cost of a pure-ALU interior (used for
	// the one-tick fast path).
	cost uint64
	// wcSched bounds the cycles consumed before the dop's last instruction
	// begins (the scheduler must not want another core mid-run; the final
	// instruction's cost is irrelevant — after it, scheduling re-evaluates).
	// Zero for singles: one instruction can never lose the scheduler's pick
	// mid-dispatch.
	wcSched uint64
	// pure marks an interior of only re-executable ops (execSlice semantics).
	pure bool
	// n is the number of source instructions the interior covers.
	n int
}

// dblock is one decoded basic block.
type dblock struct {
	ops []dop
	// pc maps a source instruction index to its thunk index, or -1 for the
	// interior of a fused run (dispatch falls back to single-stepping).
	pc []int32
}

// Decode slab chunk sizes, in elements: a program's decoded blocks, their
// source-index maps and their thunks are carved from chunked per-program
// slabs, so decoding costs O(chunks) allocations, not O(blocks).
const (
	blockChunk = 64
	pcChunk    = 1024
	opChunk    = 256
)

// dprog is the machine-level decode cache: one decoded block per (fn, blk) of
// the loaded program, filled lazily, plus the decode-cache counters reported
// in Stats.
type dprog struct {
	prog *prog.Program
	fns  [][]*dblock // per-function windows of one block-index array

	// Unused tails of the current slab chunks, and the thunk scratch a block
	// is decoded into before its exactly sized ops are carved.
	blocks  []dblock
	pcs     []int32
	ops     []dop
	scratch []dop

	hits   uint64 // block entries served by the cache (per block switch)
	misses uint64 // blocks decoded
	fused  uint64 // fused superinstructions among the decoded thunks
}

// newDprog returns an empty decode cache for p.
func newDprog(p *prog.Program) *dprog {
	n := 0
	for _, f := range p.Funcs {
		n += len(f.Blocks)
	}
	idx := make([]*dblock, n)
	dp := &dprog{prog: p, fns: make([][]*dblock, len(p.Funcs))}
	for i, f := range p.Funcs {
		dp.fns[i] = slab.Carve(&idx, len(f.Blocks), 0)
	}
	return dp
}

// decodedBlock returns the decoded form of block (fn, blk), decoding on first
// touch. The cache is keyed by program identity: replacing the loaded program
// drops it wholesale.
func (m *Machine) decodedBlock(fn, blk int, b *prog.Block) *dblock {
	dp := m.dec
	if dp == nil || dp.prog != m.prog {
		dp = newDprog(m.prog)
		m.dec = dp
	}
	if db := dp.fns[fn][blk]; db != nil {
		dp.hits++
		return db
	}
	dp.misses++
	db := dp.decodeBlock(b.Insts, &m.cfg)
	dp.fns[fn][blk] = db
	return db
}

// interiorOp reports whether an instruction may live in a fused run's
// interior: it must retire unconditionally (no stall-retry path) and touch
// nothing the proxy service loop watches.
func interiorOp(in *isa.Inst) bool {
	if in.IsReexecutable() {
		return true
	}
	switch in.Op {
	case isa.OpLoad, isa.OpEmit, isa.OpFence, isa.OpBarrier, isa.OpCkpt:
		return true
	}
	return false
}

// interiorWC returns the worst-case cycle cost of one interior op.
func interiorWC(in *isa.Inst, cfg *Config) uint64 {
	if in.IsReexecutable() {
		return aluCost(in.Op)
	}
	switch in.Op {
	case isa.OpLoad:
		wc := cfg.L2Hit
		if cfg.DRAMHit > wc {
			wc = cfg.DRAMHit
		}
		if cfg.NVMRead > wc {
			wc = cfg.NVMRead
		}
		return cfg.L1Hit + wc/cfg.LoadOverlap
	case isa.OpFence, isa.OpBarrier:
		return 4
	case isa.OpEmit:
		return costALU
	case isa.OpCkpt:
		return 2 * costStore
	}
	return 0
}

// decodeBlock translates one basic block into its thunk run. Maximal
// straight-line interior runs are fused, optionally absorbing a trailing
// store, conditional branch, or unconditional branch (the profile's hottest
// pairs: load+op chains into op+store and cmp+branch).
func (dp *dprog) decodeBlock(insts []isa.Inst, cfg *Config) *dblock {
	pc := slab.Carve(&dp.pcs, len(insts), pcChunk)
	ops := dp.scratch[:0]
	i := 0
	for i < len(insts) {
		j := i
		for j < len(insts) && j-i < maxFuseLen && interiorOp(&insts[j]) {
			j++
		}
		d := dop{n: j - i}
		end := j
		if d.n > 0 {
			d.slice = insts[i:j:j]
			d.pure = true
			var wcSum, wcLast uint64
			for k := range d.slice {
				in := &d.slice[k]
				w := interiorWC(in, cfg)
				wcSum += w
				wcLast = w
				if in.IsReexecutable() {
					d.cost += aluCost(in.Op)
				} else {
					d.pure = false
				}
			}
			d.wcSched = wcSum
			// Try to absorb a fusable tail.
			if end < len(insts) {
				switch insts[end].Op {
				case isa.OpStore:
					d.run, d.in = dRunStore, &insts[end]
					end++
				case isa.OpBr:
					d.run, d.in = dRunBr, &insts[end]
					end++
				case isa.OpBrIf:
					d.run, d.in = dRunBrIf, &insts[end]
					end++
				}
			}
			if d.run == nil {
				d.run = dRun
				// No tail: the last interior op's own cost cannot affect
				// scheduling (nothing of this dop follows it).
				d.wcSched = wcSum - wcLast
			}
		} else {
			in := &insts[i]
			d.in = in
			switch in.Op {
			case isa.OpStore:
				d.run = dRunStore
			case isa.OpBr:
				d.run = dRunBr
			case isa.OpBrIf:
				d.run = dRunBrIf
			default:
				// Call/Ret/Halt/Boundary/atomics/locks and anything unknown
				// dispatch through the reference switch core.
				d.run = dSingle
			}
			end++
		}
		if end-i > 1 {
			dp.fused++
		}
		pc[i] = int32(len(ops))
		ops = append(ops, d)
		for k := i + 1; k < end; k++ {
			pc[k] = -1
		}
		i = end
	}
	dp.scratch = ops
	db := &slab.Carve(&dp.blocks, 1, blockChunk)[0]
	db.pc = pc
	db.ops = slab.Carve(&dp.ops, len(ops), opChunk)
	copy(db.ops, ops)
	return db
}

// stepThreaded dispatches one decoded thunk on core c within the strict
// quantum budget (the highest cycle at which the scheduler would still pick
// c; the run loop guarantees c.cycle < budget on entry). A fused run whose
// worst case might overrun the budget retires one instruction at a time on
// the reference core instead.
func (m *Machine) stepThreaded(c *core, budget uint64) {
	if c.blkFn != c.fn || c.blkId != c.blk || c.dblk == nil {
		b := m.prog.Funcs[c.fn].Blocks[c.blk]
		c.blkInsts = b.Insts
		c.blkFn, c.blkId = c.fn, c.blk
		c.dblk = m.decodedBlock(c.fn, c.blk, b)
	}
	db := c.dblk
	if c.idx >= len(db.pc) {
		m.fatalf("core %d: PC f%d b%d idx %d beyond block", c.id, c.fn, c.blk, c.idx)
		return
	}
	op := db.pc[c.idx]
	if op < 0 {
		// Interior resume point (recovery checkpoint or retried fused tail):
		// single-step on the switch core until the PC re-reaches a thunk head.
		m.step(c)
	} else {
		d := &db.ops[op]
		if d.wcSched != 0 && c.cycle+d.wcSched > budget {
			m.step(c)
		} else {
			d.run(m, c, d)
		}
	}
}

// runInterior executes a fused run's interior with batched timing: exec-cost
// ticks accumulate (`acc`) and flush in one tick — before any load (which
// observes c.cycle via the controller writeback path), before any service,
// and at the end. The per-op service the switch core would run is a no-op
// strictly before the event horizon, so it is gated on the true cycle
// (c.cycle + acc, since accumulated ticks have not landed yet): the gate
// fires exactly when the switch core's service would have done work, and the
// accumulator is flushed first so service observes the true cycle.
func (m *Machine) runInterior(c *core, d *dop) {
	if d.pure && (c.front == nil || c.cycle+d.cost < c.svcAt) {
		execSlice(&c.regs, d.slice)
		c.tick(CauseExec, d.cost)
		return
	}
	gated := c.front != nil
	var acc uint64
	for i := range d.slice {
		if gated && i > 0 && c.cycle+acc >= c.svcAt {
			if acc != 0 {
				c.tick(CauseExec, acc)
				acc = 0
			}
			m.service(c)
		}
		in := &d.slice[i]
		switch in.Op {
		case isa.OpLoad:
			if acc != 0 {
				c.tick(CauseExec, acc)
				acc = 0
			}
			addr := c.regs[in.Ra] + uint64(in.Imm)
			c.regs[in.Rd] = m.mem.Load(addr)
			m.chargeLoad(c, addr)
		case isa.OpFence, isa.OpBarrier:
			c.tick(CauseFence, 4)
		case isa.OpEmit:
			c.stagedEmits = append(c.stagedEmits, c.regs[in.Ra])
			acc += costALU
		case isa.OpCkpt:
			if m.cfg.Capri {
				c.front.StageCkpt(in.Ra, c.regs[in.Ra])
			}
			c.dynCkpts++
			c.curStores++
			c.tick(CauseCkpt, 2*costStore)
		default:
			execOne(&c.regs, in)
			acc += aluCost(in.Op)
		}
	}
	if acc != 0 {
		c.tick(CauseExec, acc)
	}
}

// serviceGate runs the per-instruction service a fused tail is owed, exactly
// when it would not be a no-op.
func (m *Machine) serviceGate(c *core) {
	if c.front != nil && c.cycle >= c.svcAt {
		m.service(c)
	}
}

// dRun executes a fused run with no tail.
func dRun(m *Machine, c *core, d *dop) {
	m.runInterior(c, d)
	c.idx += d.n
	c.instret += uint64(d.n)
	c.curInsts += uint64(d.n)
}

// dRunBr executes a fused run ending in an unconditional branch.
func dRunBr(m *Machine, c *core, d *dop) {
	m.runInterior(c, d)
	m.serviceGate(c) // the switch core services before the branch dispatch
	c.tick(CauseExec, costBranch)
	c.blk, c.idx = int(d.in.Target), 0
	k := uint64(d.n) + 1
	c.instret += k
	c.curInsts += k
}

// dRunBrIf executes a fused run ending in a conditional branch (the fused
// cmp+branch superinstruction — BrIf carries its own comparison).
func dRunBrIf(m *Machine, c *core, d *dop) {
	m.runInterior(c, d)
	m.serviceGate(c)
	in := d.in
	c.tick(CauseExec, costBranch)
	if in.Cond.Eval(c.regs[in.Ra], c.regs[in.Rb]) {
		c.blk = int(in.Target)
	} else {
		c.blk = int(in.Else)
	}
	c.idx = 0
	k := uint64(d.n) + 1
	c.instret += k
	c.curInsts += k
}

// dRunStore executes a fused run ending in a regular store (the op+store
// superinstruction). The interior retires first; a front-end stall then
// leaves the PC on the store itself — an interior index — so the retry
// single-steps through the switch core with identical stall accounting.
// doStore performs its own service call, so no extra pre-tail service is
// needed (a second call at the same cycle would be an idempotent no-op).
func dRunStore(m *Machine, c *core, d *dop) {
	if d.n > 0 {
		m.runInterior(c, d)
		c.idx += d.n
		c.instret += uint64(d.n)
		c.curInsts += uint64(d.n)
	}
	in := d.in
	addr := c.regs[in.Ra] + uint64(in.Imm)
	if !m.doStore(c, addr, c.regs[in.Rb]) {
		return // stalled on the front-end proxy; retry
	}
	c.dynStores++
	c.curStores++
	c.idx++
	c.instret++
	c.curInsts++
}

// dSingle dispatches one instruction through the reference switch core.
func dSingle(m *Machine, c *core, d *dop) {
	m.step(c)
}
