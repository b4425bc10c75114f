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

	// Analyses of other functions, through many chunk refills of every
	// slab: ten rounds carve 64 times the first function's ints, and each
	// refill is as large as everything carved before it.
	var last carvedAnalyses
	for i := range 40 {
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

// TestArenaChunksGrowWithUse pins the chunk-growth rule: Reserve sizes each
// slab's first chunk from the program, so the reserved number of analyses
// (a CFG, its loop forest and liveness per function) fills one chunk per
// slab, and the refill after it, as large as everything carved so far,
// holds as many analyses again. Without Reserve the first chunks fit the
// first requests exactly and the same work makes more refills.
func TestArenaChunksGrowWithUse(t *testing.T) {
	p := &prog.Program{Funcs: []*prog.Func{nestedLoops(), loopChain(3, 70), ladder(40)}}
	const rounds = 4
	analyses := func(reserve bool, n int) float64 {
		return testing.AllocsPerRun(10, func() {
			a := new(Arena)
			if reserve {
				a.Reserve(p, rounds)
			}
			for range n {
				for _, f := range p.Funcs {
					c := BuildCFG(a, f)
					c.Loops()
					ComputeLiveness(c)
				}
			}
		})
	}
	// The arena itself, then one chunk each of ints, register sets, block-set
	// words, CFGs, liveness results, loops and loop exits.
	const slabs = 7
	if n := analyses(true, rounds); n != 1+slabs {
		t.Errorf("%d reserved analyses made %.0f allocations, want %d", rounds, n, 1+slabs)
	}
	if n := analyses(true, 2*rounds); n != 1+2*slabs {
		t.Errorf("%d analyses after reserving %d made %.0f allocations, want %d", 2*rounds, rounds, n, 1+2*slabs)
	}
	if n := analyses(false, rounds); n <= 1+2*slabs {
		t.Errorf("%d unreserved analyses made %.0f allocations, want more than %d", rounds, n, 1+2*slabs)
	}
}
