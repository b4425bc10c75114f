package analysis

import (
	"testing"

	"capri/internal/isa"
	"capri/internal/prog"
)

// members lists a set's members in iteration order.
func members(s BlockSet) []int {
	var out []int
	for b := s.Next(0); b >= 0; b = s.Next(b + 1) {
		out = append(out, b)
	}
	return out
}

func TestBlockSetAscendingIteration(t *testing.T) {
	s := NewBlockSet(200)
	want := []int{0, 3, 63, 64, 65, 127, 128, 199}
	for i := len(want) - 1; i >= 0; i-- {
		s.Add(want[i])
		s.Add(want[i]) // idempotent
	}
	got := members(s)
	if len(got) != len(want) || s.Len() != len(want) {
		t.Fatalf("members = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("members = %v, want %v", got, want)
		}
	}
	if s.Has(1) || s.Has(200) || s.Has(1<<20) {
		t.Error("non-member reported present")
	}
	if s.Next(200) != -1 || s.Next(129) != 199 {
		t.Errorf("Next(200)=%d Next(129)=%d", s.Next(200), s.Next(129))
	}
}

func TestNewBlockSetsAreIndependent(t *testing.T) {
	sets := NewBlockSets(3, 70)
	sets[1].Add(69)
	sets[0].Add(0)
	if sets[0].Has(69) || sets[2].Has(69) || !sets[1].Has(69) || sets[1].Has(0) {
		t.Errorf("sets share members: %v %v %v", members(sets[0]), members(sets[1]), members(sets[2]))
	}
}

// ladder builds an n-block forward DAG: block i branches to i+1 and i+2
// (clamped), the last block halts.
func ladder(n int) *prog.Func {
	bd := prog.NewBuilder("ladder")
	f := bd.Func("main")
	bs := make([]*prog.Block, n)
	for i := range bs {
		bs[i] = f.Block()
	}
	for i := range bs {
		f.SetBlock(bs[i])
		if i == n-1 {
			f.Halt()
			continue
		}
		f.BrIf(0, isa.CondLT, 1, bs[i+1], bs[min(i+2, n-1)])
	}
	bd.Program()
	return f.Raw()
}

// loopChain builds pad straight-line blocks followed by k sequential
// two-block loops (header, latch) and an exit block.
func loopChain(k, pad int) *prog.Func {
	bd := prog.NewBuilder("loops")
	f := bd.Func("main")
	bs := make([]*prog.Block, pad+2*k+1)
	for i := range bs {
		bs[i] = f.Block()
	}
	for i := 0; i < pad; i++ {
		f.SetBlock(bs[i])
		f.MovI(0, int64(i))
		f.Br(bs[i+1])
	}
	for l := 0; l < k; l++ {
		hdr, latch, next := bs[pad+2*l], bs[pad+2*l+1], bs[pad+2*l+2]
		f.SetBlock(hdr)
		f.BrIf(0, isa.CondGE, 1, next, latch)
		f.SetBlock(latch)
		f.AddI(0, 0, 1)
		f.Br(hdr)
	}
	f.SetBlock(bs[len(bs)-1])
	f.Halt()
	bd.Program()
	return f.Raw()
}

// TestBuildCFGAllocsConstant pins the flat CFG layout: building the CFG of
// an 8-block and of a 256-block function costs the same allocations.
func TestBuildCFGAllocsConstant(t *testing.T) {
	small, large := ladder(8), ladder(256)
	a := testing.AllocsPerRun(20, func() { BuildCFG(small) })
	b := testing.AllocsPerRun(20, func() { BuildCFG(large) })
	if a != b {
		t.Errorf("BuildCFG allocs: 8 blocks %.0f, 256 blocks %.0f; want equal", a, b)
	}
	c := BuildCFG(large)
	if len(c.RPO) != 256 || c.RPO[0] != 0 || c.RPO[255] != 255 {
		t.Errorf("ladder RPO = %v", c.RPO)
	}
	// The edge lists are capped windows of one array: appending to one
	// must not overwrite its neighbour.
	_ = append(c.Succ[0], -1)
	_ = append(c.Pred[2], -1)
	if c.Succ[1][0] != 2 || c.Pred[3][0] != 1 {
		t.Errorf("edge list append clobbered a neighbour: succ(b1)=%v pred(b3)=%v", c.Succ[1], c.Pred[3])
	}
}

// TestLoopsAllocsPerLoop pins that Loops allocates in proportion to the
// number of loops: padding the function with straight-line blocks changes
// nothing.
func TestLoopsAllocsPerLoop(t *testing.T) {
	for _, k := range []int{1, 4} {
		short, long := BuildCFG(loopChain(k, 4)), BuildCFG(loopChain(k, 250))
		if n := len(long.Loops()); n != k {
			t.Fatalf("loops = %d, want %d", n, k)
		}
		a := testing.AllocsPerRun(20, func() { short.Loops() })
		b := testing.AllocsPerRun(20, func() { long.Loops() })
		if a != b {
			t.Errorf("%d loops: Loops allocs %.0f with 4 pad blocks, %.0f with 250", k, a, b)
		}
		if limit := float64(4 + 4*k); b > limit {
			t.Errorf("%d loops: Loops allocs %.0f > %.0f", k, b, limit)
		}
	}
}
