package compile

import (
	"strings"
	"testing"

	"capri/internal/analysis"
	"capri/internal/isa"
	"capri/internal/prog"
)

// --- canonicalization ---

func TestCanonicalizeIsolatesSync(t *testing.T) {
	bd := prog.NewBuilder("c")
	f := bd.Func("main")
	f.Block()
	f.MovI(0, 1)
	f.Fence()
	f.MovI(1, 2)
	f.AtomicAdd(2, 0, 0, 1)
	f.MovI(3, 3)
	f.Halt()
	p := bd.Program()

	canonicalize(p)
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	for _, b := range p.Funcs[0].Blocks {
		for i := range b.Insts {
			in := &b.Insts[i]
			if in.IsMandatoryBoundary() {
				if i != 0 {
					t.Errorf("sync %s not at block start (idx %d)", in, i)
				}
				if len(b.Insts) != 2 || !b.Insts[1].IsTerminator() {
					t.Errorf("sync %s not alone in its block: %d insts", in, len(b.Insts))
				}
			}
		}
	}
}

func TestCanonicalizeRetSitesAtBlockStart(t *testing.T) {
	bd := prog.NewBuilder("c")
	leaf := bd.Func("leaf")
	leaf.Block()
	leaf.MovI(0, 1)
	leaf.Ret()
	main := bd.Func("main")
	main.Block()
	main.MovI(isa.SP, 1<<19)
	main.Call(leaf)
	main.MovI(1, 2)
	main.Call(leaf)
	main.Emit(1)
	main.Halt()
	p := bd.Program()

	canonicalize(p)
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	for _, rs := range p.RetSites {
		if rs.Index != 0 {
			t.Errorf("ret site %+v not at a block start", rs)
		}
	}
}

func TestSplitBlockRedirectsTokens(t *testing.T) {
	bd := prog.NewBuilder("s")
	leaf := bd.Func("leaf")
	leaf.Block()
	leaf.Ret()
	main := bd.Func("main")
	main.Block()
	main.MovI(isa.SP, 1<<19)
	main.Call(leaf) // token points at index 2
	main.MovI(1, 7)
	main.Halt()
	p := bd.Program()
	f := p.Funcs[1]

	splitBlock(p, f, f.Blocks[0], 2)
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	rs := p.RetSites[0]
	if rs.Block != 1 || rs.Index != 0 {
		t.Errorf("token not redirected: %+v", rs)
	}
}

// --- region helpers ---

func TestMandatoryBoundarySet(t *testing.T) {
	p := storeLoop(2)
	canonicalize(p)
	f := p.Funcs[0]
	cfg := analysis.BuildCFG(new(analysis.Arena), f)
	mand := mandatoryBoundaries(p, f, cfg)
	if !mand.Has(f.Entry) {
		t.Error("entry not mandatory")
	}
	hdrs := cfg.LoopHeaders()
	for h := hdrs.Next(0); h >= 0; h = hdrs.Next(h + 1) {
		if !mand.Has(h) {
			t.Errorf("loop header b%d not mandatory", h)
		}
	}
}

func TestVerifyThresholdRejectsOverflow(t *testing.T) {
	bd := prog.NewBuilder("v")
	f := bd.Func("main")
	f.Block()
	f.MovI(0, 1<<16)
	for i := 0; i < 10; i++ {
		f.Store(0, int64(8*i), 0)
	}
	f.Halt()
	p := bd.Program()
	fn := p.Funcs[0]
	fn.Blocks[0].BoundaryAt = true

	a := new(analysis.Arena)
	if err := checkThreshold(a, buildCFGs(a, p), 4); err == nil {
		t.Error("threshold 4 accepted for a 10-store region")
	}
	if err := checkThreshold(a, buildCFGs(a, p), 10); err != nil {
		t.Errorf("threshold 10 rejected: %v", err)
	}
}

func TestTinyThresholds(t *testing.T) {
	// At threshold 1 a def and its checkpoint may each need a region. The
	// compiler must emit a program whose regions fit, every pass's output
	// included, or fail because a region cannot fit at all; it must never
	// panic or overflow.
	opts := DefaultOptions()
	opts.Threshold = 1
	opts.VerifyAfter = VerifyAfterAll
	for _, stores := range []int{1, 3} {
		res, err := Compile(storeLoop(stores), opts)
		if err != nil {
			if !strings.Contains(err.Error(), "infeasible") {
				t.Errorf("storeLoop(%d) at threshold 1: %v", stores, err)
			}
		} else if got := maxRegionStores(t, res.Program); got > 1 {
			t.Errorf("storeLoop(%d): region stores = %d at threshold 1", stores, got)
		}
	}
	// An atomic whose destination is live holds two stores in its own
	// one-instruction region: no cut can fit that at threshold 1.
	bd := prog.NewBuilder("atomic")
	f := bd.Func("main")
	f.SetBlock(f.Block())
	f.MovI(2, 1<<16)
	f.MovI(3, 1)
	f.AtomicAdd(4, 2, 0, 3)
	f.Emit(4)
	f.Halt()
	_, err := Compile(bd.Program(), opts)
	if err == nil || !strings.Contains(err.Error(), "region at b1 is infeasible") || !strings.Contains(err.Error(), "live-in [r2 r3]") {
		t.Errorf("atomic at threshold 1: got %v, want an infeasible region at b1 with live-in [r2 r3]", err)
	}
	// Threshold 2 is the practical minimum and must work.
	opts.Threshold, opts.VerifyAfter = 2, ""
	res, err := Compile(storeLoop(1), opts)
	if err != nil {
		t.Fatalf("threshold 2: %v", err)
	}
	if got := maxRegionStores(t, res.Program); got > 2 {
		t.Errorf("region stores = %d at threshold 2", got)
	}
}

func TestCompileDeterministic(t *testing.T) {
	p := storeLoop(3)
	a := MustCompile(p, DefaultOptions()).Program.String()
	b := MustCompile(p, DefaultOptions()).Program.String()
	if a != b {
		t.Error("Compile is not deterministic")
	}
}

// --- prune internals ---

func TestOtherDefReaches(t *testing.T) {
	// b0: def r1 (idx 1); b1 (boundary): loop header; b2: redef r1, back to b1.
	bd := prog.NewBuilder("odr")
	f := bd.Func("main")
	b0 := f.Block()
	b1 := f.Block()
	b2 := f.Block()
	b3 := f.Block()
	f.SetBlock(b0)
	f.MovI(0, 10)
	f.MovI(1, 5)
	f.Br(b1)
	f.SetBlock(b1)
	f.BrIf(1, isa.CondGE, 0, b3, b2)
	f.SetBlock(b2)
	f.AddI(1, 1, 1) // other def of r1
	f.Br(b1)
	f.SetBlock(b3)
	f.Halt()
	bd.Program()

	fn := f.Raw()
	cfg := analysis.BuildCFG(new(analysis.Arena), fn)
	// The def at (b0, idx1) vs boundary b1: the redef in b2 reaches b1 via
	// the back edge.
	sc := newPruneScratch(new(analysis.Arena), len(fn.Blocks))
	if !sc.otherDefReaches(fn, cfg, 0, 1, 1, []int{1}) {
		t.Error("loop redef not detected as reaching the header boundary")
	}
	// Register r0 has no other defs: nothing reaches.
	if sc.otherDefReaches(fn, cfg, 0, 0, 0, []int{1}) {
		t.Error("phantom def detected for r0")
	}
}

func TestSliceConsistentRejectsVersionConflict(t *testing.T) {
	// a=1; b=a+5; a=2; d=a+b — the canonical conflict from the doc comment.
	b := &prog.Block{Insts: []isa.Inst{
		{Op: isa.OpMovI, Rd: 1, Imm: 1},        // 0: a=1
		{Op: isa.OpAddI, Rd: 2, Ra: 1, Imm: 5}, // 1: b=a+5
		{Op: isa.OpMovI, Rd: 1, Imm: 2},        // 2: a=2
		{Op: isa.OpAdd, Rd: 3, Ra: 1, Rb: 2},   // 3: d=a+b
	}}
	// Slice candidate: indexes {0,1,2,3} includes two defs of r1.
	var leaves analysis.RegSet
	if sliceConsistent(b, 3, leaves, []int{0, 1, 2, 3}) {
		t.Error("version conflict accepted")
	}
	// An outside def of an involved register *within* [lo, di] must be
	// rejected: slice {0, 3} with leaf r2, where index 1 defines r2 but is
	// not part of the slice.
	var leavesB analysis.RegSet
	leavesB.Add(2)
	if sliceConsistent(b, 3, leavesB, []int{0, 3}) {
		t.Error("outside def of involved register accepted")
	}
	// Straight-line consistent case: d=a+b where slice={3} and both leaves
	// checkpointed (no defs in (3,3)).
	var leaves2 analysis.RegSet
	leaves2.Add(1)
	leaves2.Add(2)
	if !sliceConsistent(b, 3, leaves2, []int{3}) {
		t.Error("clean single-def slice rejected")
	}
}

func TestHasFreshCkptBefore(t *testing.T) {
	b := &prog.Block{Insts: []isa.Inst{
		{Op: isa.OpMovI, Rd: 1, Imm: 1},      // 0
		{Op: isa.OpCkpt, Ra: 1},              // 1
		{Op: isa.OpMovI, Rd: 2, Imm: 2},      // 2
		{Op: isa.OpMovI, Rd: 1, Imm: 3},      // 3: redef r1
		{Op: isa.OpAdd, Rd: 4, Ra: 1, Rb: 2}, // 4
	}}
	if !hasFreshCkptBefore(b, 3, 1) {
		t.Error("fresh ckpt before the redef not found")
	}
	if hasFreshCkptBefore(b, 4, 1) {
		t.Error("stale ckpt (redef in between) accepted")
	}
	if hasFreshCkptBefore(b, 4, 2) {
		t.Error("never-checkpointed register accepted")
	}
}

func TestSliceLeafsOn(t *testing.T) {
	b := &prog.Block{RecoverySlices: []prog.RecoverySlice{
		{Reg: 5, Insts: []isa.Inst{
			{Op: isa.OpAdd, Rd: 5, Ra: 1, Rb: 2}, // leaves r1, r2
		}},
		{Reg: 6, Insts: []isa.Inst{
			{Op: isa.OpMovI, Rd: 7, Imm: 3},      // defines r7 first...
			{Op: isa.OpAdd, Rd: 6, Ra: 7, Rb: 3}, // ...then uses it: r7 not a leaf
		}},
	}}
	if !sliceLeafsOn(b, 1) || !sliceLeafsOn(b, 2) || !sliceLeafsOn(b, 3) {
		t.Error("true leaves not detected")
	}
	if sliceLeafsOn(b, 7) {
		t.Error("slice-internal register misreported as leaf")
	}
	if sliceLeafsOn(b, 9) {
		t.Error("unrelated register reported as leaf")
	}
}

// --- option edge cases ---

func TestNaiveWithPruneStillSound(t *testing.T) {
	opts := Options{Threshold: 64, InsertCheckpoints: true, NaiveRegions: true, Prune: true, LICM: true, MaxUnroll: 1}
	res, err := Compile(storeLoop(2), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Regions == 0 {
		t.Error("no regions in naive mode")
	}
}

func TestCompileErrorMentionsStage(t *testing.T) {
	_, err := Compile(storeLoop(1), Options{Threshold: 0})
	if err == nil || !strings.Contains(err.Error(), "threshold") {
		t.Errorf("err = %v", err)
	}
}
