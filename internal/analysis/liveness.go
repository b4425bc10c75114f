package analysis

import (
	"math/bits"

	"capri/internal/isa"
	"capri/internal/prog"
)

// RegSet is a bit set over the 32 architectural registers.
type RegSet uint32

// Add inserts r into the set.
func (s *RegSet) Add(r isa.Reg) { *s |= 1 << r }

// Remove deletes r from the set.
func (s *RegSet) Remove(r isa.Reg) { *s &^= 1 << r }

// Has reports whether r is in the set.
func (s RegSet) Has(r isa.Reg) bool { return s&(1<<r) != 0 }

// Union returns s ∪ t.
func (s RegSet) Union(t RegSet) RegSet { return s | t }

// Intersect returns s ∩ t.
func (s RegSet) Intersect(t RegSet) RegSet { return s & t }

// AllRegs is the set of every architectural register.
const AllRegs = RegSet(1<<isa.NumRegs - 1)

// Count returns the set's cardinality.
func (s RegSet) Count() int {
	n := 0
	for s != 0 {
		s &= s - 1
		n++
	}
	return n
}

// Regs returns the members in ascending order.
func (s RegSet) Regs() []isa.Reg {
	var out []isa.Reg
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if s.Has(r) {
			out = append(out, r)
		}
	}
	return out
}

// Liveness holds per-block live-in/live-out register sets.
type Liveness struct {
	LiveIn  []RegSet
	LiveOut []RegSet
	// Use and Def are the classic per-block gen/kill sets: Use[b] holds
	// registers read before any write in b, Def[b] registers written in b.
	Use []RegSet
	Def []RegSet
	// callUse, when set, extends an OpCall's register uses with the callee's
	// transitive may-read set, making the analysis call-aware.
	callUse func(callee int32) RegSet
}

// instUses collects an instruction's register uses, extending calls with the
// callee summary when the analysis is call-aware.
func (lv *Liveness) instUses(in *isa.Inst, dst []isa.Reg) []isa.Reg {
	dst = in.Uses(dst)
	if in.Op == isa.OpCall && lv.callUse != nil {
		for s := lv.callUse(in.Callee); s != 0; s &= s - 1 {
			dst = append(dst, isa.Reg(bits.TrailingZeros32(uint32(s))))
		}
	}
	return dst
}

// maxUses bounds instUses' result: three operands plus a callee summary.
const maxUses = 3 + isa.NumRegs

// ComputeLiveness runs the standard backward dataflow over the function.
//
// Two conservative choices keep whole-system recovery sound:
//   - OpRet treats every register as potentially live in the caller's
//     continuation (the analysis is intra-procedural), so live-out at a Ret is
//     the function's "callee-saved everything" contract.
//   - OpCall is treated as using SP and defining nothing; registers live
//     across the call stay live (the callee may read args and the caller's
//     continuation may read anything preserved).
func ComputeLiveness(c *CFG) *Liveness { return ComputeLivenessWithRet(c, nil, AllRegs) }

// ComputeLivenessCallAware is ComputeLiveness with calls additionally using
// callUse(callee) — typically the callee's transitive may-read register
// summary. Passes that reason about where a value can still be consumed
// (checkpoint pruning, checkpoint LICM) must use this form: with plain
// intraprocedural liveness, a register consumed only inside a callee looks
// dead before the call, which is exactly the blind spot that would let an
// unsound transformation through.
func ComputeLivenessCallAware(c *CFG, callUse func(callee int32) RegSet) *Liveness {
	return ComputeLivenessWithRet(c, callUse, AllRegs)
}

// ComputeLivenessWithRet generalizes the live-at-return seed: retLive is the
// set treated as live-out at every OpRet instead of the conservative AllRegs.
// The semantic region verifier passes the function's interprocedural
// return-need summary here, so "live at a boundary" means "actually read on
// some path after the boundary" — in this function, in a callee (via
// callUse), or in a caller's continuation (via retLive) — rather than "not
// provably dead before an all-registers return".
//
// The four per-block set arrays are capped windows of one allocation.
func ComputeLivenessWithRet(c *CFG, callUse func(callee int32) RegSet, retLive RegSet) *Liveness {
	n := len(c.F.Blocks)
	sets := make([]RegSet, 4*n)
	lv := &Liveness{
		LiveIn:  sets[:n:n],
		LiveOut: sets[n : 2*n : 2*n],
		Use:     sets[2*n : 3*n : 3*n],
		Def:     sets[3*n:],
		callUse: callUse,
	}

	var ubuf [maxUses]isa.Reg
	uses := ubuf[:0]
	for _, b := range c.F.Blocks {
		var use, def RegSet
		for i := range b.Insts {
			in := &b.Insts[i]
			uses = lv.instUses(in, uses[:0])
			for _, r := range uses {
				if !def.Has(r) {
					use.Add(r)
				}
			}
			if d, ok := in.Def(); ok {
				def.Add(d)
			}
		}
		lv.Use[b.ID] = use
		lv.Def[b.ID] = def
	}

	changed := true
	for changed {
		changed = false
		// Iterate blocks in reverse RPO for fast convergence.
		for i := len(c.RPO) - 1; i >= 0; i-- {
			b := c.RPO[i]
			var out RegSet
			blk := c.F.Blocks[b]
			if t, ok := blk.Terminator(); ok && t.Op == isa.OpRet {
				out = retLive
			}
			for _, s := range c.Succ[b] {
				out = out.Union(lv.LiveIn[s])
			}
			in := lv.Use[b] | (out &^ lv.Def[b])
			if in != lv.LiveIn[b] || out != lv.LiveOut[b] {
				lv.LiveIn[b] = in
				lv.LiveOut[b] = out
				changed = true
			}
		}
	}
	return lv
}

// LiveAt returns the set of registers live immediately before instruction
// index idx of block b (idx == len(insts) means live-out of the block).
func (lv *Liveness) LiveAt(f *prog.Func, b, idx int) RegSet {
	live := lv.LiveOut[b]
	insts := f.Blocks[b].Insts
	var ubuf [maxUses]isa.Reg
	uses := ubuf[:0]
	for i := len(insts) - 1; i >= idx; i-- {
		in := &insts[i]
		if d, ok := in.Def(); ok {
			live.Remove(d)
		}
		uses = lv.instUses(in, uses[:0])
		for _, r := range uses {
			live.Add(r)
		}
	}
	return live
}
