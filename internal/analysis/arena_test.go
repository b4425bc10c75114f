package analysis

import (
	"reflect"
	"slices"
	"testing"

	"capri/internal/isa"
	"capri/internal/prog"
)

// analysesCopy is a deep copy of one function's carved analyses, taken so a
// later comparison sees whether the originals changed.
type analysesCopy struct {
	succ, pred       [][]int
	rpo, inRPO, idom []int
	loops            []Loop
	liveIn, liveOut  []RegSet
	use, def         []RegSet
	headers          []uint64
}

// carvedAnalyses is every analysis built for one function in one arena.
type carvedAnalyses struct {
	c       *CFG
	idom    []int
	loops   []Loop
	lv      *Liveness
	headers BlockSet
}

// analyze builds f's CFG, dominators, loop forest, loop headers and
// liveness in a.
func analyze(a *Arena, f *prog.Func) carvedAnalyses {
	c := BuildCFG(a, f)
	return carvedAnalyses{c: c, idom: c.Dominators(), loops: c.Loops(), lv: ComputeLiveness(c), headers: c.LoopHeaders()}
}

// snapshot deep-copies r into memory the arena does not own.
func (r carvedAnalyses) snapshot() analysesCopy {
	cp := analysesCopy{
		rpo: slices.Clone(r.c.RPO), inRPO: slices.Clone(r.c.InRPO), idom: slices.Clone(r.idom),
		liveIn: slices.Clone(r.lv.LiveIn), liveOut: slices.Clone(r.lv.LiveOut),
		use: slices.Clone(r.lv.Use), def: slices.Clone(r.lv.Def),
		headers: slices.Clone(r.headers.words),
	}
	for b := range r.c.F.Blocks {
		cp.succ = append(cp.succ, slices.Clone(r.c.Succ(b)))
		cp.pred = append(cp.pred, slices.Clone(r.c.Pred(b)))
	}
	for _, l := range r.loops {
		l.Latches, l.Exits = slices.Clone(l.Latches), slices.Clone(l.Exits)
		l.Blocks = BlockSet{slices.Clone(l.Blocks.words)}
		cp.loops = append(cp.loops, l)
	}
	return cp
}

// nestedLoops builds an outer loop around two sequential inner loops, with a
// call and a branch inside, so every analysis has several entries.
func nestedLoops() *prog.Func {
	bd := prog.NewBuilder("nested")
	main, leaf := bd.Func("main"), bd.Func("leaf")
	leaf.Block()
	leaf.Ret()
	entry, oHdr := main.Block(), main.Block()
	i1Hdr, i1Body := main.Block(), main.Block()
	i2Hdr, i2Body := main.Block(), main.Block()
	oLatch, exit := main.Block(), main.Block()

	main.SetBlock(entry)
	main.MovI(0, 0)
	main.MovI(1, 10)
	main.Br(oHdr)
	main.SetBlock(oHdr)
	main.BrIf(0, isa.CondGE, 1, exit, i1Hdr)
	main.SetBlock(i1Hdr)
	main.BrIf(2, isa.CondGE, 1, i2Hdr, i1Body)
	main.SetBlock(i1Body)
	main.AddI(2, 2, 1)
	main.Call(leaf)
	main.Br(i1Hdr)
	main.SetBlock(i2Hdr)
	main.BrIf(3, isa.CondGE, 1, oLatch, i2Body)
	main.SetBlock(i2Body)
	main.AddI(3, 3, 1)
	main.BrIf(3, isa.CondLT, 0, i2Hdr, oLatch)
	main.SetBlock(oLatch)
	main.AddI(0, 0, 1)
	main.MovI(2, 0)
	main.MovI(3, 0)
	main.Br(oHdr)
	main.SetBlock(exit)
	main.Emit(0)
	main.Halt()
	bd.Program()
	return main.Raw()
}

// TestArenaResultsOutliveRefills pins the arena's lifetime rule: a result is
// never overwritten by a later carve, however many chunk refills follow, and
// appending to a carved window (a loop's Latches or Exits, a CFG's Succ(b))
// copies instead of writing into another result.
func TestArenaResultsOutliveRefills(t *testing.T) {
	var a Arena
	first := analyze(&a, nestedLoops())
	if len(first.loops) != 3 {
		t.Fatalf("loops = %d, want 3", len(first.loops))
	}
	want := first.snapshot()
	firstInts := a.ints.carved

	// Analyses of other functions, until the int slab has grown through
	// several chunks.
	var last carvedAnalyses
	for i := 0; a.ints.carved < 64*firstInts; i++ {
		last = analyze(&a, loopChain(1+i%5, 4+i*7%200))
		analyze(&a, ladder(8+i%40))
	}
	if got := first.snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("first function's analyses changed after later carves:\n got %+v\nwant %+v", got, want)
	}

	// Appends to every appendable window of both results must leave both
	// unchanged.
	wantLast := last.snapshot()
	for _, r := range []carvedAnalyses{first, last} {
		for i := range r.loops {
			_ = append(r.loops[i].Latches, -1)
			_ = append(r.loops[i].Exits, LoopExit{From: -1, To: -1})
		}
		for b := range r.c.F.Blocks {
			_ = append(r.c.Succ(b), -1)
			_ = append(r.c.Pred(b), -1)
		}
	}
	if got := first.snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("an append to a carved window changed the first function's analyses:\n got %+v\nwant %+v", got, want)
	}
	if got := last.snapshot(); !reflect.DeepEqual(got, wantLast) {
		t.Errorf("an append to a carved window changed the last function's analyses:\n got %+v\nwant %+v", got, wantLast)
	}
}

// TestArenaChunksGrowWithUse pins the chunk-growth rule: the first chunk of
// a slab fits the first request exactly, and each refill is as large as
// everything carved from the slab so far.
func TestArenaChunksGrowWithUse(t *testing.T) {
	var a Arena
	a.Ints(3)
	if len(a.ints.free) != 0 {
		t.Fatalf("first chunk left %d spare ints, want 0", len(a.ints.free))
	}
	a.Ints(2) // refill: max(2, 3 carved) = 3
	if len(a.ints.free) != 1 {
		t.Fatalf("second chunk left %d spare ints, want 1", len(a.ints.free))
	}
	a.Ints(10) // refill: max(10, 5 carved) = 10
	a.Ints(1)  // refill: max(1, 15 carved) = 15
	if len(a.ints.free) != 14 {
		t.Fatalf("fourth chunk left %d spare ints, want 14", len(a.ints.free))
	}
}
