package prog

import (
	"strings"
	"testing"

	"capri/internal/isa"
)

// buildLoopProgram builds: main() { r0=0; loop: if r0>=10 goto exit;
// store [r1+0], r0; r0++; goto loop; exit: halt } — the canonical shape for
// most tests in this package.
func buildLoopProgram(t *testing.T) *Program {
	t.Helper()
	bd := NewBuilder("loop")
	f := bd.Func("main")
	entry := f.Block()
	header := f.Block()
	body := f.Block()
	exit := f.Block()

	f.SetBlock(entry)
	f.MovI(0, 0)
	f.MovI(1, 4096)
	f.MovI(2, 10)
	f.Br(header)

	f.SetBlock(header)
	f.BrIf(0, isa.CondGE, 2, exit, body)

	f.SetBlock(body)
	f.Store(1, 0, 0)
	f.AddI(0, 0, 1)
	f.Br(header)

	f.SetBlock(exit)
	f.Halt()

	return bd.Program()
}

func TestBuilderLoopVerifies(t *testing.T) {
	p := buildLoopProgram(t)
	if err := p.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if got := len(p.Funcs); got != 1 {
		t.Fatalf("funcs = %d, want 1", got)
	}
	if got := len(p.Funcs[0].Blocks); got != 4 {
		t.Fatalf("blocks = %d, want 4", got)
	}
}

func TestBlockSuccs(t *testing.T) {
	p := buildLoopProgram(t)
	f := p.Funcs[0]
	if s := f.Blocks[0].Succs(nil); len(s) != 1 || s[0] != 1 {
		t.Errorf("entry succs = %v", s)
	}
	if s := f.Blocks[1].Succs(nil); len(s) != 2 || s[0] != 3 || s[1] != 2 {
		t.Errorf("header succs = %v", s)
	}
	if s := f.Blocks[3].Succs(nil); len(s) != 0 {
		t.Errorf("halt block succs = %v", s)
	}
}

func TestStoreCount(t *testing.T) {
	p := buildLoopProgram(t)
	f := p.Funcs[0]
	if n := f.Blocks[2].StoreCount(); n != 1 {
		t.Errorf("body stores = %d, want 1", n)
	}
	if n := f.Blocks[0].StoreCount(); n != 0 {
		t.Errorf("entry stores = %d, want 0", n)
	}
	// Checkpoint stores count too.
	f.Blocks[2].Insts = append([]isa.Inst{{Op: isa.OpCkpt, Ra: 5}}, f.Blocks[2].Insts...)
	if n := f.Blocks[2].StoreCount(); n != 2 {
		t.Errorf("body stores with ckpt = %d, want 2", n)
	}
}

func TestCallTokens(t *testing.T) {
	bd := NewBuilder("calls")
	callee := bd.Func("leaf")
	callee.Block()
	callee.MovI(0, 42)
	callee.Ret()

	main := bd.Func("main")
	main.Block()
	main.MovI(isa.SP, 1<<20)
	main.Call(callee)
	main.Emit(0)
	main.Halt()

	p := bd.Program()
	if len(p.RetSites) != 1 {
		t.Fatalf("ret sites = %d, want 1", len(p.RetSites))
	}
	rs := p.RetSites[0]
	if rs.Func != main.ID() || rs.Block != 0 || rs.Index != 2 {
		t.Errorf("ret site = %+v", rs)
	}
}

func TestVerifyCatchesBadTarget(t *testing.T) {
	p := buildLoopProgram(t)
	p.Funcs[0].Blocks[0].Insts[3].Target = 99
	if err := p.Verify(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("Verify = %v, want out-of-range error", err)
	}
}

func TestVerifyCatchesMidBlockTerminator(t *testing.T) {
	p := buildLoopProgram(t)
	b := p.Funcs[0].Blocks[2]
	b.Insts[0] = isa.Inst{Op: isa.OpRet} // terminator mid-block
	if err := p.Verify(); err == nil || !strings.Contains(err.Error(), "mid-block") {
		t.Errorf("Verify = %v, want mid-block error", err)
	}
}

func TestVerifyCatchesMissingTerminator(t *testing.T) {
	p := buildLoopProgram(t)
	b := p.Funcs[0].Blocks[3]
	b.Insts = b.Insts[:0]
	b.Insts = append(b.Insts, isa.Inst{Op: isa.OpMovI, Rd: 0, Imm: 1})
	if err := p.Verify(); err == nil {
		t.Error("Verify should reject block without terminator")
	}
}

func TestVerifyCatchesEmptyBlock(t *testing.T) {
	p := buildLoopProgram(t)
	p.Funcs[0].Blocks[3].Insts = nil
	if err := p.Verify(); err == nil || !strings.Contains(err.Error(), "empty block") {
		t.Errorf("Verify = %v, want empty-block error", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := buildLoopProgram(t)
	p.Funcs[0].Blocks[1].BoundaryAt = true
	p.Funcs[0].Blocks[2].RecoverySlices = map[isa.Reg][]isa.Inst{
		3: {{Op: isa.OpMovI, Rd: 3, Imm: 9}},
	}
	q := p.Clone()

	// Mutate the clone; the original must be untouched.
	q.Funcs[0].Blocks[2].Insts[0].Imm = 999
	q.Funcs[0].Blocks[1].BoundaryAt = false
	q.Funcs[0].Blocks[2].RecoverySlices[3][0].Imm = 777

	if p.Funcs[0].Blocks[2].Insts[0].Imm == 999 {
		t.Error("Clone shares instruction storage")
	}
	if !p.Funcs[0].Blocks[1].BoundaryAt {
		t.Error("Clone shares boundary flags")
	}
	if p.Funcs[0].Blocks[2].RecoverySlices[3][0].Imm == 777 {
		t.Error("Clone shares recovery slices")
	}
	if err := q.Verify(); err != nil {
		t.Errorf("clone Verify: %v", err)
	}
}

func TestStats(t *testing.T) {
	p := buildLoopProgram(t)
	p.Funcs[0].Blocks[1].BoundaryAt = true
	s := p.Stats()
	if s.Funcs != 1 || s.Blocks != 4 {
		t.Errorf("stats = %+v", s)
	}
	if s.Stores != 1 {
		t.Errorf("stores = %d, want 1", s.Stores)
	}
	if s.Boundaries != 1 {
		t.Errorf("boundaries = %d, want 1", s.Boundaries)
	}
	wantInsts := 4 + 1 + 3 + 1
	if s.Insts != wantInsts {
		t.Errorf("insts = %d, want %d", s.Insts, wantInsts)
	}
}

func TestThreadEntries(t *testing.T) {
	bd := NewBuilder("mt")
	t0 := bd.Func("worker0")
	t0.Block()
	t0.Halt()
	t1 := bd.Func("worker1")
	t1.Block()
	t1.Halt()
	bd.SetThreadEntries(t0, t1)
	p := bd.Program()
	if p.NumThreads() != 2 {
		t.Fatalf("threads = %d, want 2", p.NumThreads())
	}
	if p.EntryFunc(0) != 0 || p.EntryFunc(1) != 1 {
		t.Errorf("entries = %d,%d", p.EntryFunc(0), p.EntryFunc(1))
	}
}

func TestSingleThreadDefault(t *testing.T) {
	p := buildLoopProgram(t)
	if p.NumThreads() != 1 {
		t.Errorf("threads = %d, want 1", p.NumThreads())
	}
	if p.EntryFunc(0) != 0 {
		t.Errorf("entry = %d, want 0", p.EntryFunc(0))
	}
}

func TestProgramString(t *testing.T) {
	p := buildLoopProgram(t)
	s := p.String()
	for _, want := range []string{"program loop", "func f0 main", "store [r1+0], r0", "brif"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q in:\n%s", want, s)
		}
	}
}

func TestVerifyRejectsBadThreadEntry(t *testing.T) {
	p := buildLoopProgram(t)
	p.ThreadEntries = []int{5}
	if err := p.Verify(); err == nil {
		t.Error("out-of-range thread entry accepted")
	}
}

func TestVerifyRejectsInvalidOpcode(t *testing.T) {
	p := buildLoopProgram(t)
	p.Funcs[0].Blocks[0].Insts[0].Op = isa.Op(200)
	if err := p.Verify(); err == nil {
		t.Error("invalid opcode accepted")
	}
}

func TestVerifyRejectsCrossFunctionToken(t *testing.T) {
	bd := NewBuilder("x")
	leaf := bd.Func("leaf")
	leaf.Block()
	leaf.Ret()
	main := bd.Func("main")
	main.Block()
	main.MovI(isa.SP, 1<<19)
	main.Call(leaf)
	main.Halt()
	p := bd.Program()
	// Corrupt: make the token claim to return into the callee.
	p.RetSites[0].Func = leaf.ID()
	if err := p.Verify(); err == nil {
		t.Error("cross-function return token accepted")
	}
}

func TestVerifyRejectsEmptyProgram(t *testing.T) {
	if err := New("empty").Verify(); err == nil {
		t.Error("empty program accepted")
	}
}

func TestVerifyRejectsBadEntry(t *testing.T) {
	p := buildLoopProgram(t)
	p.Funcs[0].Entry = 99
	if err := p.Verify(); err == nil {
		t.Error("bad entry accepted")
	}
}

func TestFuncByNameMissing(t *testing.T) {
	p := buildLoopProgram(t)
	if p.FuncByName("ghost") != nil {
		t.Error("found nonexistent function")
	}
	if p.FuncByName("main") == nil {
		t.Error("missed existing function")
	}
}

// TestCompactKeepsContentInCappedWindows replaces some instruction lists with
// slab windows (leaving the old ones dead), compacts, and checks that every
// list and recovery slice kept its content, no longer aliases the storage it
// came from, and sits in a window capped at its length, so appending to one
// list never writes into the next.
func TestCompactKeepsContentInCappedWindows(t *testing.T) {
	p := buildLoopProgram(t)
	f := p.Funcs[0]
	f.Blocks[1].RecoverySlices = map[isa.Reg][]isa.Inst{3: {{Op: isa.OpMovI, Rd: 3, Imm: 9}}}
	for _, b := range f.Blocks[:2] {
		insts := f.NewInsts(len(b.Insts))
		copy(insts, b.Insts)
		b.Insts = insts
	}
	want := p.Fingerprint()
	old := make([][]isa.Inst, len(f.Blocks))
	for i, b := range f.Blocks {
		old[i] = b.Insts
	}

	f.Compact()
	if got := p.Fingerprint(); got != want {
		t.Fatal("Compact changed the program")
	}
	for i, b := range f.Blocks {
		if cap(b.Insts) != len(b.Insts) {
			t.Errorf("b%d: cap %d, len %d; want a capped window", i, cap(b.Insts), len(b.Insts))
		}
		if &b.Insts[0] == &old[i][0] {
			t.Errorf("b%d: Compact kept the old storage", i)
		}
	}
	if s := f.Blocks[1].RecoverySlices[3]; cap(s) != 1 || s[0].Imm != 9 {
		t.Errorf("recovery slice = %v (cap %d)", s, cap(s))
	}
	first := f.Blocks[1].Insts[0]
	_ = append(f.Blocks[0].Insts, isa.Inst{Op: isa.OpHalt})
	if f.Blocks[1].Insts[0] != first {
		t.Error("append to one block's list clobbered the next")
	}
}
