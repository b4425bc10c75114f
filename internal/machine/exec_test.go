package machine

import (
	"testing"

	"capri/internal/isa"
	"capri/internal/prog"
)

// runStraight executes a straight-line instruction sequence on a baseline
// machine and returns it for register inspection.
func runStraight(t *testing.T, emit func(f *prog.FuncBuilder)) *Machine {
	t.Helper()
	bd := prog.NewBuilder("straight")
	f := bd.Func("main")
	f.Block()
	f.MovI(isa.SP, int64(StackBase(0)))
	emit(f)
	f.Halt()
	bd.SetThreadEntries(f)
	cfg := testConfig(64)
	cfg.Capri = false
	m, err := New(bd.Program(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestExecALUSemantics(t *testing.T) {
	m := runStraight(t, func(f *prog.FuncBuilder) {
		f.MovI(1, 20)
		f.MovI(2, 6)
		f.Add(3, 1, 2)             // 26
		f.Op3(isa.OpSub, 4, 1, 2)  // 14
		f.Mul(5, 1, 2)             // 120
		f.Op3(isa.OpDiv, 6, 1, 2)  // 3
		f.Op3(isa.OpRem, 7, 1, 2)  // 2
		f.Op3(isa.OpAnd, 8, 1, 2)  // 20&6 = 4
		f.Op3(isa.OpOr, 9, 1, 2)   // 22
		f.Op3(isa.OpXor, 10, 1, 2) // 18
		f.Op3(isa.OpShl, 11, 1, 2) // 20<<6 = 1280
		f.Op3(isa.OpShr, 12, 1, 2) // 0
		f.Op3(isa.OpMin, 13, 1, 2) // 6
		f.Op3(isa.OpMax, 14, 1, 2) // 20
	})
	want := map[isa.Reg]uint64{
		3: 26, 4: 14, 5: 120, 6: 3, 7: 2, 8: 4, 9: 22, 10: 18,
		11: 1280, 12: 0, 13: 6, 14: 20,
	}
	regs := m.DebugRegs(0)
	for r, v := range want {
		if regs[r] != v {
			t.Errorf("r%d = %d, want %d", r, regs[r], v)
		}
	}
}

func TestExecDivRemByZero(t *testing.T) {
	m := runStraight(t, func(f *prog.FuncBuilder) {
		f.MovI(1, 42)
		f.MovI(2, 0)
		f.Op3(isa.OpDiv, 3, 1, 2)
		f.Op3(isa.OpRem, 4, 1, 2)
	})
	regs := m.DebugRegs(0)
	if regs[3] != 0 || regs[4] != 0 {
		t.Errorf("div/rem by zero = %d/%d, want 0/0 (ARM UDIV semantics)", regs[3], regs[4])
	}
}

func TestExecSignedDivision(t *testing.T) {
	m := runStraight(t, func(f *prog.FuncBuilder) {
		f.MovI(1, -20)
		f.MovI(2, 6)
		f.Op3(isa.OpDiv, 3, 1, 2)
		f.Op3(isa.OpRem, 4, 1, 2)
		f.Op3(isa.OpMin, 5, 1, 2) // signed: -20
		f.Op3(isa.OpMax, 6, 1, 2) // 6
	})
	regs := m.DebugRegs(0)
	if int64(regs[3]) != -3 || int64(regs[4]) != -2 {
		t.Errorf("signed div/rem = %d/%d, want -3/-2", int64(regs[3]), int64(regs[4]))
	}
	if int64(regs[5]) != -20 || regs[6] != 6 {
		t.Errorf("signed min/max = %d/%d", int64(regs[5]), int64(regs[6]))
	}
}

func TestExecImmediates(t *testing.T) {
	m := runStraight(t, func(f *prog.FuncBuilder) {
		f.MovI(1, 10)
		f.AddI(2, 1, -3)           // 7
		f.MulI(3, 1, 5)            // 50
		f.AndI(4, 1, 6)            // 2
		f.OpI(isa.OpShlI, 5, 1, 2) // 40
		f.OpI(isa.OpShrI, 6, 1, 1) // 5
		f.Mov(7, 1)                // 10
	})
	want := map[isa.Reg]uint64{2: 7, 3: 50, 4: 2, 5: 40, 6: 5, 7: 10}
	regs := m.DebugRegs(0)
	for r, v := range want {
		if regs[r] != v {
			t.Errorf("r%d = %d, want %d", r, regs[r], v)
		}
	}
}

func TestExecSel(t *testing.T) {
	m := runStraight(t, func(f *prog.FuncBuilder) {
		f.MovI(1, 1)
		f.MovI(2, 0)
		f.MovI(3, 77)
		f.MovI(4, 88)
		f.Sel(5, 1, 3, 4) // cond!=0 -> 77
		f.Sel(6, 2, 3, 4) // cond==0 -> 88
	})
	regs := m.DebugRegs(0)
	if regs[5] != 77 || regs[6] != 88 {
		t.Errorf("sel = %d/%d, want 77/88", regs[5], regs[6])
	}
}

func TestExecLoadStoreRoundTrip(t *testing.T) {
	m := runStraight(t, func(f *prog.FuncBuilder) {
		f.MovI(1, int64(HeapBase))
		f.MovI(2, 123456)
		f.Store(1, 16, 2)
		f.Load(3, 1, 16)
		f.Load(4, 1, 24) // never written: zero
	})
	regs := m.DebugRegs(0)
	if regs[3] != 123456 || regs[4] != 0 {
		t.Errorf("load = %d/%d", regs[3], regs[4])
	}
}

func TestExecAtomicCAS(t *testing.T) {
	m := runStraight(t, func(f *prog.FuncBuilder) {
		f.MovI(1, int64(HeapBase))
		f.MovI(2, 5)
		f.Store(1, 0, 2)           // mem = 5
		f.MovI(3, 5)               // expected
		f.MovI(4, 9)               // new
		f.AtomicCAS(5, 1, 0, 3, 4) // succeeds: r5=5, mem=9
		f.AtomicCAS(6, 1, 0, 3, 4) // fails: r6=9, mem stays 9
		f.Load(7, 1, 0)
	})
	regs := m.DebugRegs(0)
	if regs[5] != 5 || regs[6] != 9 || regs[7] != 9 {
		t.Errorf("cas = old1 %d old2 %d final %d, want 5 9 9", regs[5], regs[6], regs[7])
	}
}

func TestExecEmitStagingVsBaseline(t *testing.T) {
	// On the Capri machine, emits staged in an uncommitted region must not
	// appear in the durable output until the boundary commits.
	bd := prog.NewBuilder("emit")
	f := bd.Func("main")
	f.Block()
	f.MovI(isa.SP, int64(StackBase(0)))
	f.MovI(1, 42)
	f.MovI(2, int64(HeapBase))
	f.Emit(1)
	f.Store(2, 0, 1) // ensure the region has a store
	f.Halt()
	bd.SetThreadEntries(f)
	cp := compileForHelper(t, bd.Program(), 16)

	m, _ := New(cp, testConfig(16))
	// Crash after the Emit but before Halt commits it: durable output empty.
	if err := m.RunUntil(4); err != nil {
		t.Fatal(err)
	}
	if !m.Done() && len(m.Output(0)) != 0 {
		t.Errorf("uncommitted emit already durable: %v", m.Output(0))
	}
	// Finish: one output.
	m2, _ := New(cp, testConfig(16))
	if err := m2.Run(); err != nil {
		t.Fatal(err)
	}
	if len(m2.Output(0)) != 1 || m2.Output(0)[0] != 42 {
		t.Errorf("output = %v, want [42]", m2.Output(0))
	}
}

func compileForHelper(t *testing.T, p *prog.Program, threshold int) *prog.Program {
	t.Helper()
	return compileFor(t, p, threshold)
}

func TestLockSpinConsumesCyclesNotInstret(t *testing.T) {
	// A single core spinning on a taken lock must not retire instructions
	// while spinning; with the lock pre-taken in memory by another store and
	// never released, the machine would deadlock — so test the bounded case:
	// acquire a free lock, release, re-acquire.
	bd := prog.NewBuilder("lock")
	f := bd.Func("main")
	f.Block()
	f.MovI(isa.SP, int64(StackBase(0)))
	f.MovI(1, int64(HeapBase))
	f.Lock(1, 0)
	f.Unlock(1, 0)
	f.Lock(1, 0)
	f.Unlock(1, 0)
	f.Halt()
	bd.SetThreadEntries(f)
	cp := compileFor(t, bd.Program(), 16)
	m, _ := New(cp, testConfig(16))
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.MemSnapshot()[HeapBase]; got != 0 {
		t.Errorf("lock word = %d, want 0 (released)", got)
	}
}

func TestHaltRecordPersisted(t *testing.T) {
	cp := compileFor(t, sumProgram(10), 16)
	m, _ := New(cp, testConfig(16))
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// After quiesce, the recovery record must show the core halted: a crash
	// after completion recovers to "done".
	img, err := m.Crash()
	if err != nil {
		t.Fatal(err)
	}
	if !img.Records[0].Halted {
		t.Error("halt marker not folded into the recovery record")
	}
	r, rep, err := Recover(img)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CoresHalted != 1 || rep.CoresResumed != 0 {
		t.Errorf("report = %+v", rep)
	}
	if !r.Done() {
		t.Error("recovered machine not done")
	}
	// Output survived in the durable tape.
	if len(r.Output(0)) != 1 {
		t.Errorf("output lost across post-completion crash: %v", r.Output(0))
	}
}

func TestOrderedSlicesDeterministic(t *testing.T) {
	b := &prog.Block{RecoverySlices: map[isa.Reg][]isa.Inst{
		7: {{Op: isa.OpMovI, Rd: 7, Imm: 1}},
		3: {{Op: isa.OpMovI, Rd: 3, Imm: 2}},
		9: {{Op: isa.OpMovI, Rd: 9, Imm: 3}},
	}}
	s := orderedSlices(b)
	if len(s) != 3 || s[0][0].Rd != 3 || s[1][0].Rd != 7 || s[2][0].Rd != 9 {
		t.Errorf("slices not in ascending register order: %v", s)
	}
	if orderedSlices(&prog.Block{}) != nil {
		t.Error("empty block should yield nil slices")
	}
}

func TestExecSliceAllOpcodes(t *testing.T) {
	// execSlice is the recovery-time evaluator for pruned checkpoints; it
	// must implement every re-executable opcode with the same semantics as
	// the main interpreter.
	var regs [isa.NumRegs]uint64
	regs[1] = 20
	regs[2] = 6
	slice := []isa.Inst{
		{Op: isa.OpAdd, Rd: 3, Ra: 1, Rb: 2},  // 26
		{Op: isa.OpSub, Rd: 4, Ra: 1, Rb: 2},  // 14
		{Op: isa.OpMul, Rd: 5, Ra: 1, Rb: 2},  // 120
		{Op: isa.OpDiv, Rd: 6, Ra: 1, Rb: 2},  // 3
		{Op: isa.OpRem, Rd: 7, Ra: 1, Rb: 2},  // 2
		{Op: isa.OpAnd, Rd: 8, Ra: 1, Rb: 2},  // 4
		{Op: isa.OpOr, Rd: 9, Ra: 1, Rb: 2},   // 22
		{Op: isa.OpXor, Rd: 10, Ra: 1, Rb: 2}, // 18
		{Op: isa.OpShl, Rd: 11, Ra: 1, Rb: 2}, // 1280
		{Op: isa.OpShr, Rd: 12, Ra: 1, Rb: 2}, // 0
		{Op: isa.OpMin, Rd: 13, Ra: 1, Rb: 2}, // 6
		{Op: isa.OpMax, Rd: 14, Ra: 1, Rb: 2}, // 20
		{Op: isa.OpAddI, Rd: 15, Ra: 1, Imm: 5},
		{Op: isa.OpMulI, Rd: 16, Ra: 1, Imm: 3},
		{Op: isa.OpAndI, Rd: 17, Ra: 1, Imm: 7},
		{Op: isa.OpShlI, Rd: 18, Ra: 1, Imm: 1},
		{Op: isa.OpShrI, Rd: 19, Ra: 1, Imm: 2},
		{Op: isa.OpMovI, Rd: 20, Imm: 99},
		{Op: isa.OpMov, Rd: 21, Ra: 1},
		{Op: isa.OpSel, Rd: 22, Ra: 1, Rb: 2, Rc: 3},
	}
	execSlice(&regs, slice)
	want := map[isa.Reg]uint64{
		3: 26, 4: 14, 5: 120, 6: 3, 7: 2, 8: 4, 9: 22, 10: 18,
		11: 1280, 12: 0, 13: 6, 14: 20, 15: 25, 16: 60, 17: 4,
		18: 40, 19: 5, 20: 99, 21: 20, 22: 6,
	}
	for r, v := range want {
		if regs[r] != v {
			t.Errorf("slice r%d = %d, want %d", r, regs[r], v)
		}
	}
	// Division/modulo by zero inside a slice must be safe.
	var r2 [isa.NumRegs]uint64
	r2[1] = 9
	execSlice(&r2, []isa.Inst{
		{Op: isa.OpDiv, Rd: 3, Ra: 1, Rb: 2},
		{Op: isa.OpRem, Rd: 4, Ra: 1, Rb: 2},
		{Op: isa.OpMin, Rd: 5, Ra: 1, Rb: 2},
		{Op: isa.OpMax, Rd: 6, Ra: 1, Rb: 2},
	})
	if r2[3] != 0 || r2[4] != 0 {
		t.Errorf("slice div/rem by zero = %d/%d", r2[3], r2[4])
	}
	if r2[5] != 0 || r2[6] != 9 {
		t.Errorf("slice min/max = %d/%d", r2[5], r2[6])
	}
	// Signed variants.
	var r3 [isa.NumRegs]uint64
	var neg20 int64 = -20
	r3[1] = uint64(neg20)
	r3[2] = 6
	execSlice(&r3, []isa.Inst{
		{Op: isa.OpDiv, Rd: 3, Ra: 1, Rb: 2},
		{Op: isa.OpRem, Rd: 4, Ra: 1, Rb: 2},
		{Op: isa.OpMin, Rd: 5, Ra: 1, Rb: 2},
		{Op: isa.OpSel, Rd: 6, Ra: 0, Rb: 1, Rc: 2}, // cond 0 -> rc
	})
	if int64(r3[3]) != -3 || int64(r3[4]) != -2 || int64(r3[5]) != -20 || r3[6] != 6 {
		t.Errorf("signed slice results: %d %d %d %d", int64(r3[3]), int64(r3[4]), int64(r3[5]), r3[6])
	}
}

func TestAccessors(t *testing.T) {
	cp := compileFor(t, sumProgram(10), 16)
	cfg := testConfig(16)
	m, _ := New(cp, cfg)
	if m.Config().Threshold != 16 {
		t.Error("Config accessor wrong")
	}
	if m.Program() != cp {
		t.Error("Program accessor wrong")
	}
}
