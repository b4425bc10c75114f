package compile

import (
	"math/bits"
	"slices"

	"capri/internal/analysis"
	"capri/internal/isa"
	"capri/internal/prog"
)

// Checkpoint motion out of loops (paper §4.4.2).
//
// A checkpoint store may be moved anywhere between its register's defining
// instruction and the next region boundary. When both the def and its
// checkpoint sit inside a loop but the computed value is loop-invariant, the
// pair re-executes every iteration, re-writing the same checkpoint slot — the
// repeated-checkpoint problem of paper Figure 4. We hoist the (re-executable,
// loop-invariant) def together with its checkpoint into the loop preheader.
//
// Hoisting to the preheader, rather than the paper's loop exit, keeps the
// checkpoint-freshness invariant for crashes *inside* the loop: the slot is
// written before the first header boundary ever commits (see DESIGN.md).
//
// Conditions for hoisting a (def, ckpt) pair of register r out of loop L:
//   - def is re-executable and every operand has no definition inside L;
//   - def is the only definition of r anywhere in L;
//   - a call inside L counts as a definition of every register its callee
//     or the callee's transitive callees may write (the call summary), for
//     both rules above;
//   - the loop has a unique preheader (single edge into the header from
//     outside);
//   - the preheader's region has room for one more store: the worst path
//     through the preheader plus the hoisted checkpoint stays within the
//     threshold;
//   - r is not live into the header (no in-loop use of r's pre-loop value,
//     so executing the def earlier is invisible);
//   - r is not live at any loop exit target (a zero-trip loop would
//     otherwise expose the speculated value after the loop);
//   - speculating the def is safe because re-executable instructions are
//     pure (no memory access, no traps in our ISA: div/rem by zero yield 0).
//
// These pairs arise when a loop body contains non-header boundaries (calls,
// atomics) whose recovery needs a loop-invariant value: the checkpoint-need
// analysis places the checkpoint next to the def inside the loop, and this
// pass lifts the pair out.
func licmCheckpoints(a *analysis.Arena, f *prog.Func, calls callSummary, threshold int) int {
	moved := 0
	for {
		cfg := analysis.BuildCFG(a, f)
		loops := cfg.Loops()
		var lv *analysis.Liveness
		var through []int
		did := false
		for li := range loops {
			l := &loops[li]
			pre, ok := preheader(f, cfg, l)
			if !ok {
				continue
			}
			if lv == nil {
				lv = analysis.ComputeLivenessCallAware(cfg, calls.reads)
				through = pathWeights(a, cfg)
			}
			if through[pre]+1 > threshold {
				continue
			}
			if tryHoist(f, lv, calls.writes, l, pre) {
				moved++
				did = true
				break // CFG metadata stale after mutation; rebuild
			}
		}
		if !did {
			return moved
		}
	}
}

// preheader returns the unique out-of-loop predecessor of the loop header,
// if there is exactly one.
func preheader(f *prog.Func, cfg *analysis.CFG, l *analysis.Loop) (int, bool) {
	pre, n := -1, 0
	for _, p := range cfg.Pred(l.Header) {
		if !l.Blocks.Has(p) {
			pre = p
			n++
		}
	}
	return pre, n == 1
}

// tryHoist finds one hoistable (def, ckpt) pair in loop l and moves it to the
// end of the preheader (before its terminator). Reports whether it moved one.
// calleeWrites is the call summary's transitive may-write set per callee.
// Blocks are scanned in ascending ID order, so the choice is deterministic.
func tryHoist(f *prog.Func, lv *analysis.Liveness, calleeWrites []analysis.RegSet, l *analysis.Loop, pre int) bool {
	var defsInLoop [isa.NumRegs]int
	for id := l.Blocks.Next(0); id >= 0; id = l.Blocks.Next(id + 1) {
		b := f.Blocks[id]
		for i := range b.Insts {
			in := &b.Insts[i]
			if d, ok := in.Def(); ok {
				defsInLoop[d]++
			}
			if in.Op == isa.OpCall {
				for w := calleeWrites[in.Callee]; w != 0; w &= w - 1 {
					defsInLoop[bits.TrailingZeros32(uint32(w))]++
				}
			}
		}
	}

	for id := l.Blocks.Next(0); id >= 0; id = l.Blocks.Next(id + 1) {
		b := f.Blocks[id]
		for i := 0; i+1 < len(b.Insts); i++ {
			def := b.Insts[i]
			ck := b.Insts[i+1]
			if ck.Op != isa.OpCkpt {
				continue
			}
			d, ok := def.Def()
			if !ok || d != ck.Ra || !def.IsReexecutable() {
				continue
			}
			if defsInLoop[d] != 1 {
				continue
			}
			// No in-loop use of the pre-loop value, and no post-loop use
			// that a zero-trip execution would corrupt.
			if lv.LiveIn[l.Header].Has(d) {
				continue
			}
			exitsSafe := true
			for _, e := range l.Exits {
				if lv.LiveIn[e.To].Has(d) {
					exitsSafe = false
					break
				}
			}
			if !exitsSafe {
				continue
			}
			invariant := true
			var ops [3]isa.Reg
			for _, s := range def.Uses(ops[:0]) {
				if defsInLoop[s] > 0 {
					invariant = false
					break
				}
			}
			if !invariant {
				continue
			}
			// Hoist: remove both instructions from the loop, insert them in
			// the preheader before its terminator.
			b.Insts = slices.Delete(b.Insts, i, i+2)
			pb := f.Blocks[pre]
			term := len(pb.Insts) - 1
			insts := f.NewInsts(len(pb.Insts) + 2)
			copy(insts, pb.Insts[:term])
			insts[term], insts[term+1], insts[term+2] = def, ck, pb.Insts[term]
			pb.Insts = insts
			return true
		}
	}
	return false
}
