package analysis

import (
	"testing"
	"testing/quick"

	"capri/internal/isa"
	"capri/internal/prog"
)

// diamond builds:
//
//	b0 -> b1, b2; b1 -> b3; b2 -> b3; b3: ret
func diamond(t *testing.T) *prog.Func {
	t.Helper()
	bd := prog.NewBuilder("d")
	f := bd.Func("main")
	b0 := f.Block()
	b1 := f.Block()
	b2 := f.Block()
	b3 := f.Block()

	f.SetBlock(b0)
	f.MovI(1, 1)
	f.MovI(2, 2)
	f.BrIf(1, isa.CondLT, 2, b1, b2)
	f.SetBlock(b1)
	f.Mov(3, 1)
	f.Br(b3)
	f.SetBlock(b2)
	f.Add(3, 1, 2)
	f.Br(b3)
	f.SetBlock(b3)
	f.Emit(3)
	f.Halt()
	bd.Program()
	return f.Raw()
}

// loopFunc builds a simple counted loop:
//
//	b0(entry) -> b1(header); b1 -> b2(body) | b3(exit); b2 -> b1
func loopFunc(t *testing.T) *prog.Func {
	t.Helper()
	bd := prog.NewBuilder("l")
	f := bd.Func("main")
	b0 := f.Block()
	b1 := f.Block()
	b2 := f.Block()
	b3 := f.Block()

	f.SetBlock(b0)
	f.MovI(0, 0)
	f.MovI(1, 100)
	f.Br(b1)
	f.SetBlock(b1)
	f.BrIf(0, isa.CondGE, 1, b3, b2)
	f.SetBlock(b2)
	f.AddI(0, 0, 1)
	f.Br(b1)
	f.SetBlock(b3)
	f.Halt()
	bd.Program()
	return f.Raw()
}

func TestCFGEdges(t *testing.T) {
	f := diamond(t)
	c := BuildCFG(new(Arena), f)
	if got := c.Succ(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("succ(b0) = %v", got)
	}
	if got := c.Pred(3); len(got) != 2 {
		t.Errorf("pred(b3) = %v", got)
	}
	if len(c.RPO) != 4 || c.RPO[0] != 0 {
		t.Errorf("RPO = %v", c.RPO)
	}
	if c.RPO[len(c.RPO)-1] != 3 {
		t.Errorf("RPO should end at the join, got %v", c.RPO)
	}
}

func TestRPOUnreachable(t *testing.T) {
	f := diamond(t)
	// Add an unreachable block.
	b := f.NewBlock()
	b.Insts = append(b.Insts, isa.Inst{Op: isa.OpHalt})
	c := BuildCFG(new(Arena), f)
	if c.Reachable(b.ID) {
		t.Error("orphan block should be unreachable")
	}
	if len(c.RPO) != 4 {
		t.Errorf("RPO = %v, want 4 reachable blocks", c.RPO)
	}
}

func TestDominatorsDiamond(t *testing.T) {
	f := diamond(t)
	c := BuildCFG(new(Arena), f)
	idom := c.Dominators()
	if idom[0] != 0 {
		t.Errorf("idom(entry) = %d", idom[0])
	}
	if idom[1] != 0 || idom[2] != 0 {
		t.Errorf("idom(b1)=%d idom(b2)=%d, want 0,0", idom[1], idom[2])
	}
	if idom[3] != 0 {
		t.Errorf("idom(join) = %d, want 0 (branches don't dominate the join)", idom[3])
	}
	if !Dominates(idom, 0, 0, 3) {
		t.Error("entry must dominate join")
	}
	if Dominates(idom, 0, 1, 3) {
		t.Error("b1 must not dominate join")
	}
}

func TestLoopsDetection(t *testing.T) {
	f := loopFunc(t)
	c := BuildCFG(new(Arena), f)
	loops := c.Loops()
	if len(loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(loops))
	}
	l := loops[0]
	if l.Header != 1 {
		t.Errorf("header = b%d, want b1", l.Header)
	}
	if len(l.Latches) != 1 || l.Latches[0] != 2 {
		t.Errorf("latches = %v, want [2]", l.Latches)
	}
	if !l.Blocks.Has(1) || !l.Blocks.Has(2) || l.Blocks.Has(0) || l.Blocks.Has(3) {
		t.Errorf("body = %v", members(l.Blocks))
	}
	if len(l.Exits) != 1 || l.Exits[0] != (LoopExit{From: 1, To: 3}) {
		t.Errorf("exits = %v", l.Exits)
	}
	if l.Parent != -1 {
		t.Errorf("parent = %d, want -1", l.Parent)
	}
}

func TestNestedLoops(t *testing.T) {
	bd := prog.NewBuilder("n")
	f := bd.Func("main")
	entry := f.Block()  // b0
	oHdr := f.Block()   // b1 outer header
	iHdr := f.Block()   // b2 inner header
	iBody := f.Block()  // b3 inner body (latch of inner)
	oLatch := f.Block() // b4 outer latch
	exit := f.Block()   // b5

	f.SetBlock(entry)
	f.MovI(0, 0)
	f.MovI(1, 10)
	f.Br(oHdr)
	f.SetBlock(oHdr)
	f.BrIf(0, isa.CondGE, 1, exit, iHdr)
	f.SetBlock(iHdr)
	f.BrIf(2, isa.CondGE, 1, oLatch, iBody)
	f.SetBlock(iBody)
	f.AddI(2, 2, 1)
	f.Br(iHdr)
	f.SetBlock(oLatch)
	f.AddI(0, 0, 1)
	f.MovI(2, 0)
	f.Br(oHdr)
	f.SetBlock(exit)
	f.Halt()
	bd.Program()

	c := BuildCFG(new(Arena), f.Raw())
	loops := c.Loops()
	if len(loops) != 2 {
		t.Fatalf("loops = %d, want 2", len(loops))
	}
	// Outermost-first ordering.
	outer, inner := loops[0], loops[1]
	if outer.Header != 1 || inner.Header != 2 {
		t.Fatalf("headers = b%d,b%d, want b1,b2", outer.Header, inner.Header)
	}
	if inner.Parent != 0 {
		t.Errorf("inner.Parent = %d, want 0", inner.Parent)
	}
	if outer.Parent != -1 {
		t.Errorf("outer.Parent = %d, want -1", outer.Parent)
	}
	if !outer.Blocks.Has(2) || !outer.Blocks.Has(3) || !outer.Blocks.Has(4) {
		t.Errorf("outer body missing inner blocks: %v", members(outer.Blocks))
	}
	if inner.Blocks.Has(4) {
		t.Errorf("inner body must not contain outer latch: %v", members(inner.Blocks))
	}
	hs := c.LoopHeaders()
	if !hs.Has(1) || !hs.Has(2) || hs.Has(0) || hs.Has(5) {
		t.Errorf("headers = %v", members(hs))
	}
}

func TestRegSetBasics(t *testing.T) {
	var s RegSet
	s.Add(3)
	s.Add(31)
	if !s.Has(3) || !s.Has(31) || s.Has(4) {
		t.Errorf("set membership broken: %b", s)
	}
	if s.Count() != 2 {
		t.Errorf("count = %d", s.Count())
	}
	s.Remove(3)
	if s.Has(3) || s.Count() != 1 {
		t.Errorf("remove broken: %b", s)
	}
	regs := s.Regs()
	if len(regs) != 1 || regs[0] != 31 {
		t.Errorf("regs = %v", regs)
	}
}

func TestRegSetProperties(t *testing.T) {
	f := func(a, b uint32) bool {
		sa, sb := RegSet(a), RegSet(b)
		u := sa.Union(sb)
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if u.Has(r) != (sa.Has(r) || sb.Has(r)) {
				return false
			}
		}
		return u.Count() == len(u.Regs())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLivenessLoop(t *testing.T) {
	f := loopFunc(t)
	c := BuildCFG(new(Arena), f)
	lv := ComputeLiveness(c)

	// r0 (induction) and r1 (bound) are live into the header.
	if !lv.LiveIn[1].Has(0) || !lv.LiveIn[1].Has(1) {
		t.Errorf("header live-in = %v", lv.LiveIn[1].Regs())
	}
	// Body defines r0 and it is live-out (used next iteration).
	if !lv.LiveOut[2].Has(0) {
		t.Errorf("body live-out = %v", lv.LiveOut[2].Regs())
	}
	// Entry has no live-ins beyond nothing (r0,r1 defined there).
	if lv.LiveIn[0].Has(0) || lv.LiveIn[0].Has(1) {
		t.Errorf("entry live-in = %v", lv.LiveIn[0].Regs())
	}
}

func TestLivenessDiamond(t *testing.T) {
	f := diamond(t)
	c := BuildCFG(new(Arena), f)
	lv := ComputeLiveness(c)
	// r3 is live into the join (emitted there).
	if !lv.LiveIn[3].Has(3) {
		t.Errorf("join live-in = %v", lv.LiveIn[3].Regs())
	}
	// r1 is live into b1 (copied) and b2 (added).
	if !lv.LiveIn[1].Has(1) || !lv.LiveIn[2].Has(1) {
		t.Error("r1 must be live into both branch arms")
	}
	// r2 is live into b2 only.
	if lv.LiveIn[1].Has(2) {
		t.Error("r2 must not be live into b1")
	}
}

func TestLivenessRetIsAllLive(t *testing.T) {
	bd := prog.NewBuilder("r")
	f := bd.Func("leaf")
	f.Block()
	f.MovI(0, 1)
	f.Ret()
	bd.Program()
	c := BuildCFG(new(Arena), f.Raw())
	lv := ComputeLiveness(c)
	// Conservative contract: everything live at Ret except what the block
	// itself defines... LiveOut includes all regs.
	if lv.LiveOut[0].Count() != int(isa.NumRegs) {
		t.Errorf("ret live-out count = %d, want %d", lv.LiveOut[0].Count(), isa.NumRegs)
	}
}

func TestLiveAt(t *testing.T) {
	f := diamond(t)
	c := BuildCFG(new(Arena), f)
	lv := ComputeLiveness(c)
	// In b2 ("add r3, r1, r2; br"), before the add r1 and r2 are live and r3
	// is not.
	live := lv.LiveAt(c.F, 2, 0)
	if !live.Has(1) || !live.Has(2) {
		t.Errorf("live before add = %v", live.Regs())
	}
	if live.Has(3) {
		t.Errorf("r3 must not be live before its def: %v", live.Regs())
	}
	// After the add (before the br), r3 is live, r1/r2 are dead.
	live = lv.LiveAt(c.F, 2, 1)
	if !live.Has(3) || live.Has(1) || live.Has(2) {
		t.Errorf("live after add = %v", live.Regs())
	}
}

func TestLivenessFixpointProperty(t *testing.T) {
	// Dataflow equations must hold at fixpoint for every reachable block:
	// LiveIn = Use ∪ (LiveOut − Def); LiveOut = ∪ succ LiveIn (plus all-regs
	// at Ret blocks).
	for _, mk := range []func(*testing.T) *prog.Func{diamond, loopFunc} {
		f := mk(t)
		c := BuildCFG(new(Arena), f)
		lv := ComputeLiveness(c)
		for _, b := range c.RPO {
			wantIn := lv.Use[b] | (lv.LiveOut[b] &^ lv.Def[b])
			if lv.LiveIn[b] != wantIn {
				t.Errorf("block b%d: LiveIn equation violated", b)
			}
			var wantOut RegSet
			if tm, ok := f.Blocks[b].Terminator(); ok && tm.Op == isa.OpRet {
				wantOut = RegSet(1<<isa.NumRegs - 1)
			}
			for _, s := range c.Succ(b) {
				wantOut = wantOut.Union(lv.LiveIn[s])
			}
			if lv.LiveOut[b] != wantOut {
				t.Errorf("block b%d: LiveOut equation violated", b)
			}
		}
	}
}
