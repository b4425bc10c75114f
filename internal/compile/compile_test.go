package compile

import (
	"testing"

	"capri/internal/analysis"
	"capri/internal/isa"
	"capri/internal/prog"
)

// storeLoop builds a program whose single loop performs `stores` store
// instructions per iteration over `iters` iterations.
func storeLoop(stores int) *prog.Program {
	bd := prog.NewBuilder("storeloop")
	f := bd.Func("main")
	entry := f.Block()
	header := f.Block()
	body := f.Block()
	exit := f.Block()

	f.SetBlock(entry)
	f.MovI(0, 0)     // i
	f.MovI(1, 1000)  // bound
	f.MovI(2, 1<<16) // base address
	f.MovI(3, 7)     // value
	f.Br(header)

	f.SetBlock(header)
	f.BrIf(0, isa.CondGE, 1, exit, body)

	f.SetBlock(body)
	for s := 0; s < stores; s++ {
		f.Store(2, int64(8*s), 3)
	}
	f.AddI(0, 0, 1)
	f.Br(header)

	f.SetBlock(exit)
	f.Emit(0)
	f.Halt()
	return bd.Program()
}

func TestCompileBasic(t *testing.T) {
	p := storeLoop(4)
	res, err := Compile(p, DefaultOptions())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if res.Stats.Regions == 0 {
		t.Error("no regions formed")
	}
	if res.Stats.Static.Ckpts == 0 {
		t.Error("no checkpoints inserted")
	}
	// The input must be untouched.
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			if b.BoundaryAt {
				t.Fatal("Compile mutated its input")
			}
			for i := range b.Insts {
				if b.Insts[i].Op == isa.OpBoundary || b.Insts[i].Op == isa.OpCkpt {
					t.Fatal("Compile mutated input instructions")
				}
			}
		}
	}
}

func TestCompileRejectsBadThreshold(t *testing.T) {
	if _, err := Compile(storeLoop(1), Options{Threshold: 0}); err == nil {
		t.Error("Compile should reject threshold 0")
	}
	if _, err := Compile(storeLoop(1), Options{Threshold: -5}); err == nil {
		t.Error("Compile should reject negative threshold")
	}
}

// Region is one compiler-formed region: a boundary block plus every block
// reachable from it without crossing another boundary.
type Region struct {
	// Head is the boundary block that starts the region.
	Head int
	// Blocks is the region's block set (includes Head).
	Blocks analysis.BlockSet
	// MaxStores is the worst-case store-class count along any path through
	// the region, counting actual instructions (checkpoints included).
	MaxStores int
}

// regionsOf groups the function's blocks into regions given final boundary
// flags. A non-boundary block reachable from multiple boundaries belongs to
// every such region (regions may overlap across join points; the worst-case
// store accounting covers all of them).
func regionsOf(a *analysis.Arena, f *prog.Func) []Region {
	cfg := analysis.BuildCFG(a, f)
	down := regionWeights(a, cfg)
	var regions []Region
	work := a.Ints(len(f.Blocks))[:0]
	for _, id := range cfg.RPO {
		if !f.Blocks[id].BoundaryAt {
			continue
		}
		r := Region{Head: id, Blocks: a.NewBlockSet(len(f.Blocks)), MaxStores: down[id]}
		r.Blocks.Add(id)
		// Forward walk without crossing other boundaries.
		work = append(work, id)
		for len(work) > 0 {
			x := work[len(work)-1]
			work = work[:len(work)-1]
			for _, s := range cfg.Succ(x) {
				if f.Blocks[s].BoundaryAt || r.Blocks.Has(s) {
					continue
				}
				r.Blocks.Add(s)
				work = append(work, s)
			}
		}
		regions = append(regions, r)
	}
	return regions
}

// maxRegionStores computes the verified worst-case store count per region
// over all functions.
func maxRegionStores(t *testing.T, p *prog.Program) int {
	t.Helper()
	max := 0
	for _, f := range p.Funcs {
		for _, r := range regionsOf(new(analysis.Arena), f) {
			if r.MaxStores > max {
				max = r.MaxStores
			}
		}
	}
	return max
}

func TestThresholdInvariantHolds(t *testing.T) {
	for _, th := range []int{8, 32, 256} {
		for _, stores := range []int{1, 3, 10, 40} {
			opts := DefaultOptions()
			opts.Threshold = th
			res, err := Compile(storeLoop(stores), opts)
			if err != nil {
				t.Fatalf("th=%d stores=%d: %v", th, stores, err)
			}
			if got := maxRegionStores(t, res.Program); got > th {
				t.Errorf("th=%d stores=%d: worst-case region stores = %d", th, stores, got)
			}
		}
	}
}

func TestOversizedBlockIsSplit(t *testing.T) {
	// A single block with 100 stores and threshold 16 must be split.
	bd := prog.NewBuilder("big")
	f := bd.Func("main")
	f.Block()
	f.MovI(0, 1<<16)
	f.MovI(1, 5)
	for i := 0; i < 100; i++ {
		f.Store(0, int64(8*i), 1)
	}
	f.Halt()
	p := bd.Program()

	opts := DefaultOptions()
	opts.Threshold = 16
	res, err := Compile(p, opts)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if got := maxRegionStores(t, res.Program); got > 16 {
		t.Errorf("worst-case region stores = %d, want <= 16", got)
	}
	if len(res.Program.Funcs[0].Blocks) < 2 {
		t.Error("oversized block was not split")
	}
}

func TestLoopHeaderIsBoundary(t *testing.T) {
	opts := DefaultOptions()
	opts.Unroll = false // keep the original loop shape
	res := MustCompile(storeLoop(2), opts)
	f := res.Program.Funcs[0]
	cfg := analysis.BuildCFG(new(analysis.Arena), f)
	found := false
	hdrs := cfg.LoopHeaders()
	for h := hdrs.Next(0); h >= 0; h = hdrs.Next(h + 1) {
		if !f.Blocks[h].BoundaryAt {
			t.Errorf("loop header b%d lacks a boundary", h)
		}
		found = true
	}
	if !found {
		t.Fatal("no loop header detected")
	}
}

func TestBoundaryInstructionMaterialized(t *testing.T) {
	res := MustCompile(storeLoop(2), DefaultOptions())
	for _, f := range res.Program.Funcs {
		for _, b := range f.Blocks {
			if b.BoundaryAt && b.Insts[0].Op != isa.OpBoundary {
				t.Errorf("f%d b%d: boundary block does not start with OpBoundary", f.ID, b.ID)
			}
			for i := 1; i < len(b.Insts); i++ {
				if b.Insts[i].Op == isa.OpBoundary {
					t.Errorf("f%d b%d: OpBoundary mid-block at %d", f.ID, b.ID, i)
				}
			}
		}
	}
}

func TestUnrollLengthensRegions(t *testing.T) {
	base := OptionsForLevel(LevelCkpt, 256)
	unrolled := OptionsForLevel(LevelUnroll, 256)

	r1 := MustCompile(storeLoop(2), base)
	r2 := MustCompile(storeLoop(2), unrolled)

	if r2.Stats.LoopsUnrolled == 0 {
		t.Fatal("speculative unrolling did not fire")
	}
	// Unrolling must grow the code and keep it verifiable.
	if r2.Stats.Static.Insts <= r1.Stats.Static.Insts {
		t.Errorf("unrolled insts = %d, want > %d", r2.Stats.Static.Insts, r1.Stats.Static.Insts)
	}
	// Region store budget still respected.
	if got := maxRegionStores(t, r2.Program); got > 256 {
		t.Errorf("unrolled worst-case stores = %d", got)
	}
}

func TestUnrollPreservesSemantics(t *testing.T) {
	// Structural check: the unrolled loop must still contain exactly one
	// back edge to the original header and each body copy must keep an exit
	// edge (the "speculative" part).
	p := storeLoop(2)
	res := MustCompile(p, OptionsForLevel(LevelUnroll, 256))
	f := res.Program.Funcs[0]
	cfg := analysis.BuildCFG(new(analysis.Arena), f)
	loops := cfg.Loops()
	if len(loops) != 1 {
		t.Fatalf("loops after unroll = %d, want 1", len(loops))
	}
	l := loops[0]
	if len(l.Latches) != 1 {
		t.Errorf("latches = %v, want exactly 1", l.Latches)
	}
	// Multiple exits: one per duplicated exit condition.
	if len(l.Exits) < 2 {
		t.Errorf("exits = %d, want >= 2 (duplicated exit conditions)", len(l.Exits))
	}
}

func TestNaiveRegionsEveryBlock(t *testing.T) {
	opts := Options{Threshold: 256, InsertCheckpoints: true, NaiveRegions: true, MaxUnroll: 1}
	res := MustCompile(storeLoop(2), opts)
	for _, f := range res.Program.Funcs {
		for _, b := range f.Blocks {
			if !b.BoundaryAt {
				t.Errorf("naive mode: f%d b%d not a boundary", f.ID, b.ID)
			}
		}
	}
}

func TestLevelOptions(t *testing.T) {
	if o := OptionsForLevel(LevelRegion, 64); o.InsertCheckpoints || o.Unroll || o.Prune || o.LICM {
		t.Errorf("LevelRegion options = %+v", o)
	}
	if o := OptionsForLevel(LevelLICM, 64); !(o.InsertCheckpoints && o.Unroll && o.Prune && o.LICM) {
		t.Errorf("LevelLICM options = %+v", o)
	}
	if o := OptionsForLevel(LevelUnroll, 64); !o.Unroll || o.Prune {
		t.Errorf("LevelUnroll options = %+v", o)
	}
	names := []string{"region", "+ckpt", "+unrolling", "+pruning", "+licm"}
	for i, l := range Levels {
		if l.String() != names[i] {
			t.Errorf("level %d = %q, want %q", i, l, names[i])
		}
	}
}

// callProgram builds main -> leaf with live values across the call.
func callProgram() *prog.Program {
	bd := prog.NewBuilder("calls")
	leaf := bd.Func("leaf")
	leaf.Block()
	leaf.AddI(isa.A0, isa.A0, 5)
	leaf.Ret()

	main := bd.Func("main")
	main.Block()
	main.MovI(isa.SP, 1<<20)
	main.MovI(isa.A0, 10)
	main.MovI(10, 77) // live across the call
	main.Call(leaf)
	main.Add(11, isa.A0, 10)
	main.Emit(11)
	main.Halt()
	bd.SetThreadEntries(main)
	return bd.Program()
}

func TestCallBoundaries(t *testing.T) {
	res := MustCompile(callProgram(), DefaultOptions())
	p := res.Program
	// Callee entry is a boundary.
	leaf := p.FuncByName("leaf")
	if !leaf.Blocks[leaf.Entry].BoundaryAt {
		t.Error("callee entry must be a region boundary")
	}
	// Return sites are at block starts and boundaries.
	for _, rs := range p.RetSites {
		if rs.Index != 0 {
			t.Errorf("return site %+v not at block start", rs)
		}
		if !p.Funcs[rs.Func].Blocks[rs.Block].BoundaryAt {
			t.Errorf("return-site block %+v not a boundary", rs)
		}
	}
}

func TestCallCheckpointsLiveAcross(t *testing.T) {
	res := MustCompile(callProgram(), DefaultOptions())
	main := res.Program.FuncByName("main")
	// r10 is live across the call: it must be checkpointed before the call.
	foundCkpt := false
	for _, b := range main.Blocks {
		for i := range b.Insts {
			if b.Insts[i].Op == isa.OpCkpt && b.Insts[i].Ra == 10 {
				foundCkpt = true
			}
			if b.Insts[i].Op == isa.OpCall && !foundCkpt {
				t.Error("r10 not checkpointed before the call")
			}
		}
	}
	if !foundCkpt {
		t.Error("no checkpoint for r10 anywhere")
	}
}

func TestSyncBlocksAreIsolatedBoundaries(t *testing.T) {
	bd := prog.NewBuilder("sync")
	f := bd.Func("main")
	f.Block()
	f.MovI(0, 1<<16)
	f.MovI(1, 1)
	f.Store(0, 0, 1)
	f.Fence()
	f.Store(0, 8, 1)
	f.AtomicAdd(2, 0, 16, 1)
	f.Store(0, 24, 1)
	f.Halt()
	p := bd.Program()

	res := MustCompile(p, DefaultOptions())
	f2 := res.Program.Funcs[0]
	for _, b := range f2.Blocks {
		for i := range b.Insts {
			in := &b.Insts[i]
			if in.IsMandatoryBoundary() {
				if !b.BoundaryAt {
					t.Errorf("b%d: sync %s in non-boundary block", b.ID, in)
				}
				// Sync must be alone: boundary + sync + terminator.
				nonTrivial := 0
				for j := range b.Insts {
					switch b.Insts[j].Op {
					case isa.OpBoundary, isa.OpBr, isa.OpBrIf, isa.OpHalt, isa.OpRet:
					default:
						nonTrivial++
					}
				}
				if nonTrivial != 1 {
					t.Errorf("b%d: sync block has %d payload instructions", b.ID, nonTrivial)
				}
			}
		}
	}
}

func TestPruneRemovesReconstructible(t *testing.T) {
	// Build the paper's Figure 3 essence in straight line:
	//   r1 = 3 (ckpt), r3 = 4 (ckpt), r2 = r1+r3 (ckpt -> prunable),
	//   boundary (loop header), use r1,r2,r3.
	bd := prog.NewBuilder("prune")
	f := bd.Func("main")
	entry := f.Block()
	header := f.Block()
	body := f.Block()
	exit := f.Block()

	f.SetBlock(entry)
	f.MovI(1, 3)
	f.MovI(3, 4)
	f.Add(2, 1, 3)
	f.MovI(0, 0)
	f.MovI(4, 50)
	f.MovI(5, 1<<16)
	f.Br(header)

	f.SetBlock(header)
	f.BrIf(0, isa.CondGE, 4, exit, body)

	f.SetBlock(body)
	f.Store(5, 0, 1)
	f.Store(5, 8, 2)
	f.Store(5, 16, 3)
	f.AddI(0, 0, 1)
	f.Br(header)

	f.SetBlock(exit)
	f.Emit(2)
	f.Halt()
	p := bd.Program()

	noPrune := MustCompile(p, OptionsForLevel(LevelUnroll, 256))
	withPrune := MustCompile(p, OptionsForLevel(LevelPrune, 256))

	if withPrune.Stats.CkptsPruned == 0 {
		t.Fatal("pruning did not fire")
	}
	if withPrune.Stats.Static.Ckpts >= noPrune.Stats.Static.Ckpts {
		t.Errorf("ckpts with prune = %d, want < %d",
			withPrune.Stats.Static.Ckpts, noPrune.Stats.Static.Ckpts)
	}
	// A recovery slice must exist on some boundary block.
	slices := 0
	for _, fn := range withPrune.Program.Funcs {
		for _, b := range fn.Blocks {
			if len(b.RecoverySlices) > 0 {
				if !b.BoundaryAt {
					t.Errorf("recovery slice on non-boundary block b%d", b.ID)
				}
				slices += len(b.RecoverySlices)
			}
		}
	}
	if slices == 0 {
		t.Error("no recovery slices attached")
	}
}

func TestLICMHoistsInvariantPair(t *testing.T) {
	// Loop containing a call (an in-loop boundary) and a loop-invariant
	// computation r8 = r6*r7 that the need analysis will checkpoint inside
	// the loop. r8 is consumed only inside the loop, after the def.
	bd := prog.NewBuilder("licm")
	leaf := bd.Func("leaf")
	leaf.Block()
	leaf.AddI(isa.A0, isa.A0, 1)
	leaf.Ret()

	main := bd.Func("main")
	entry := main.Block()
	header := main.Block()
	body := main.Block()
	exit := main.Block()

	main.SetBlock(entry)
	main.MovI(isa.SP, 1<<20)
	main.MovI(0, 0)
	main.MovI(1, 20)
	main.MovI(6, 6)
	main.MovI(7, 7)
	main.MovI(9, 1<<16)
	main.Br(header)

	main.SetBlock(header)
	main.BrIf(0, isa.CondGE, 1, exit, body)

	main.SetBlock(body)
	main.Mul(8, 6, 7) // loop-invariant def
	main.Call(leaf)
	main.Store(9, 0, 8) // r8 used after an in-loop boundary
	main.AddI(0, 0, 1)
	main.Br(header)

	main.SetBlock(exit)
	main.Emit(0)
	main.Halt()
	bd.SetThreadEntries(main)
	p := bd.Program()

	opts := OptionsForLevel(LevelLICM, 256)
	opts.Unroll = false // keep the loop shape simple for the assertion
	res := MustCompile(p, opts)
	if res.Stats.CkptsHoisted == 0 {
		t.Fatal("LICM did not hoist anything")
	}
	// The multiply must now be outside the loop.
	f := res.Program.FuncByName("main")
	cfg := analysis.BuildCFG(new(analysis.Arena), f)
	loops := cfg.Loops()
	for _, l := range loops {
		for id := l.Blocks.Next(0); id >= 0; id = l.Blocks.Next(id + 1) {
			for i := range f.Blocks[id].Insts {
				in := &f.Blocks[id].Insts[i]
				if in.Op == isa.OpMul && in.Rd == 8 {
					t.Error("invariant multiply still inside the loop")
				}
			}
		}
	}
}

func TestCheckpointLevelsMonotonicNVMWrites(t *testing.T) {
	// More aggressive levels must never increase static checkpoint count.
	p := storeLoop(2)
	prev := -1
	for _, l := range []Level{LevelCkpt, LevelUnroll, LevelPrune, LevelLICM} {
		res := MustCompile(p, OptionsForLevel(l, 256))
		c := res.Stats.Static.Ckpts
		if prev >= 0 && l >= LevelPrune && c > prev {
			t.Errorf("level %s has %d ckpts > previous %d", l, c, prev)
		}
		prev = c
	}
}

func TestRegionsOfCoversAllBlocks(t *testing.T) {
	res := MustCompile(storeLoop(3), DefaultOptions())
	for _, f := range res.Program.Funcs {
		cfg := analysis.BuildCFG(new(analysis.Arena), f)
		covered := map[int]bool{}
		for _, r := range regionsOf(new(analysis.Arena), f) {
			for b := r.Blocks.Next(0); b >= 0; b = r.Blocks.Next(b + 1) {
				covered[b] = true
			}
		}
		for _, id := range cfg.RPO {
			if !covered[id] {
				t.Errorf("f%d b%d not in any region", f.ID, id)
			}
		}
	}
}

func TestAutoMaxUnrollFormula(t *testing.T) {
	// Pin the automatic unroll cap to its documented formula
	// max(2, min(16, threshold/40)): thresholds below 80 floor at 2, the
	// default 256 admits 6x, and 640+ saturates the cap of 16.
	cases := map[int]int{8: 2, 40: 2, 64: 2, 80: 2, 128: 3, 256: 6, 512: 12, 640: 16, 1024: 16}
	for th, want := range cases {
		if got := autoMaxUnroll(th); got != want {
			t.Errorf("autoMaxUnroll(%d) = %d, want %d", th, got, want)
		}
	}

	// MaxUnroll 0 must compile exactly like the explicit automatic value.
	p := storeLoop(3)
	auto := MustCompile(p, DefaultOptions())
	explicit := DefaultOptions()
	explicit.MaxUnroll = autoMaxUnroll(explicit.Threshold)
	if auto.Program.Fingerprint() != MustCompile(p, explicit).Program.Fingerprint() {
		t.Error("MaxUnroll=0 compiles differently from the explicit automatic cap")
	}
}
