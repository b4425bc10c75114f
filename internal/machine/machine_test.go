package machine

import (
	"reflect"
	"testing"

	"capri/internal/compile"
	"capri/internal/isa"
	"capri/internal/prog"
)

// testConfig is a small, fast configuration for unit tests.
func testConfig(threshold int) Config {
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.Threshold = threshold
	cfg.L2Size = 256 << 10
	cfg.DRAMSize = 1 << 20
	cfg.MaxSteps = 50_000_000
	return cfg
}

// sumProgram computes sum(0..n-1), storing a running total to memory each
// iteration and emitting the final sum.
func sumProgram(n int64) *prog.Program {
	bd := prog.NewBuilder("sum")
	f := bd.Func("main")
	entry := f.Block()
	header := f.Block()
	body := f.Block()
	exit := f.Block()

	f.SetBlock(entry)
	f.MovI(0, 0) // i
	f.MovI(1, n)
	f.MovI(2, 0)               // sum
	f.MovI(3, int64(HeapBase)) // base
	f.Br(header)

	f.SetBlock(header)
	f.BrIf(0, isa.CondGE, 1, exit, body)

	f.SetBlock(body)
	f.Add(2, 2, 0)
	f.Store(3, 0, 2) // running total
	f.Store(3, 8, 0) // last i
	f.AddI(0, 0, 1)
	f.Br(header)

	f.SetBlock(exit)
	f.Emit(2)
	f.Halt()
	return bd.Program()
}

func compileFor(t testing.TB, p *prog.Program, threshold int) *prog.Program {
	t.Helper()
	opts := compile.DefaultOptions()
	opts.Threshold = threshold
	res, err := compile.Compile(p, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return res.Program
}

func TestBaselineExecutesCorrectly(t *testing.T) {
	p := sumProgram(100)
	cfg := testConfig(64)
	cfg.Capri = false
	m, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	want := uint64(100 * 99 / 2)
	if out := m.Output(0); len(out) != 1 || out[0] != want {
		t.Errorf("output = %v, want [%d]", out, want)
	}
	if got := m.MemSnapshot()[HeapBase]; got != want {
		t.Errorf("mem[heap] = %d, want %d", got, want)
	}
}

func TestCapriMatchesBaselineFunctionally(t *testing.T) {
	src := sumProgram(200)

	cfgB := testConfig(64)
	cfgB.Capri = false
	mb, _ := New(src, cfgB)
	if err := mb.Run(); err != nil {
		t.Fatal(err)
	}

	cp := compileFor(t, src, 64)
	mc, err := New(cp, testConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	if err := mc.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mb.Output(0), mc.Output(0)) {
		t.Errorf("outputs differ: baseline %v capri %v", mb.Output(0), mc.Output(0))
	}
	// Architectural heap state must agree (ignore the capri stack/ckpt areas:
	// the sum program keeps data at HeapBase).
	for _, a := range []uint64{HeapBase, HeapBase + 8} {
		if mb.MemSnapshot()[a] != mc.MemSnapshot()[a] {
			t.Errorf("mem[%#x]: baseline %d capri %d", a, mb.MemSnapshot()[a], mc.MemSnapshot()[a])
		}
	}
}

func TestCapriNVMConvergesToMemory(t *testing.T) {
	// After quiesce, every architectural word must be persisted in NVM with
	// the same value (whole-system persistence at completion).
	cp := compileFor(t, sumProgram(150), 32)
	m, _ := New(cp, testConfig(32))
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	memImg := m.MemSnapshot()
	nvmImg := m.NVMSnapshot()
	for a, v := range memImg {
		if nvmImg[a] != v {
			t.Errorf("nvm[%#x] = %d, mem = %d", a, nvmImg[a], v)
		}
	}
}

func TestCapriOverheadIsBounded(t *testing.T) {
	src := sumProgram(500)
	cfgB := testConfig(256)
	cfgB.Capri = false
	mb, _ := New(src, cfgB)
	if err := mb.Run(); err != nil {
		t.Fatal(err)
	}
	cp := compileFor(t, src, 256)
	mc, _ := New(cp, testConfig(256))
	if err := mc.Run(); err != nil {
		t.Fatal(err)
	}
	ratio := float64(mc.Cycles()) / float64(mb.Cycles())
	if ratio < 0.9 || ratio > 3.0 {
		t.Errorf("capri/baseline cycle ratio = %.2f, outside sanity band", ratio)
	}
}

func TestThresholdBacksPressure(t *testing.T) {
	// Smaller thresholds must not be faster than larger ones (more
	// boundaries, more checkpoints).
	src := sumProgram(2000)
	var prev uint64
	for i, th := range []int{256, 32, 8} {
		cp := compileFor(t, src, th)
		cfg := testConfig(th)
		m, _ := New(cp, cfg)
		if err := m.Run(); err != nil {
			t.Fatalf("th=%d: %v", th, err)
		}
		cy := m.Cycles()
		if i > 0 && cy < prev {
			t.Errorf("threshold %d is faster (%d) than larger threshold (%d)", th, cy, prev)
		}
		prev = cy
	}
}

func TestRunUntilCrashAndImage(t *testing.T) {
	cp := compileFor(t, sumProgram(300), 32)
	m, _ := New(cp, testConfig(32))
	if err := m.RunUntil(500); err != nil {
		t.Fatal(err)
	}
	if m.Done() {
		t.Fatal("program finished before crash point")
	}
	img, err := m.Crash()
	if err != nil {
		t.Fatal(err)
	}
	// One hardware thread -> one stream and one record.
	if img.NVM == nil || len(img.Streams) != 1 || len(img.Records) != 1 {
		t.Fatalf("image shape: streams=%d records=%d", len(img.Streams), len(img.Records))
	}
	if len(img.Streams[0]) == 0 {
		t.Error("crash image has no buffered proxy entries mid-run")
	}
}

func TestCrashRecoveryResumesToGolden(t *testing.T) {
	src := sumProgram(300)
	cp := compileFor(t, src, 32)

	// Golden run.
	mg, _ := New(cp, testConfig(32))
	if err := mg.Run(); err != nil {
		t.Fatal(err)
	}
	goldenOut := mg.Output(0)
	goldenMem := mg.MemSnapshot()

	for _, crashAt := range []uint64{1, 17, 100, 333, 1000, 2500} {
		m, _ := New(cp, testConfig(32))
		if err := m.RunUntil(crashAt); err != nil {
			t.Fatalf("crash@%d: %v", crashAt, err)
		}
		if m.Done() {
			continue // program finished before the crash point
		}
		img, err := m.Crash()
		if err != nil {
			t.Fatal(err)
		}
		r, rep, err := Recover(img)
		if err != nil {
			t.Fatalf("crash@%d recover: %v", crashAt, err)
		}
		if rep.ConflictingUndo != 0 {
			t.Errorf("crash@%d: conflicting undo entries: %d", crashAt, rep.ConflictingUndo)
		}
		if err := r.Run(); err != nil {
			t.Fatalf("crash@%d resume: %v", crashAt, err)
		}
		if !reflect.DeepEqual(r.Output(0), goldenOut) {
			t.Errorf("crash@%d: output %v, want %v", crashAt, r.Output(0), goldenOut)
		}
		got := r.MemSnapshot()
		for _, a := range []uint64{HeapBase, HeapBase + 8} {
			if got[a] != goldenMem[a] {
				t.Errorf("crash@%d: mem[%#x] = %d, want %d", crashAt, a, got[a], goldenMem[a])
			}
		}
	}
}

func TestCrashSweepEveryEarlyPoint(t *testing.T) {
	// Exhaustive sweep over the first few hundred instruction boundaries:
	// the strongest single-thread recovery property.
	src := sumProgram(60)
	cp := compileFor(t, src, 16)

	mg, _ := New(cp, testConfig(16))
	if err := mg.Run(); err != nil {
		t.Fatal(err)
	}
	goldenOut := mg.Output(0)
	total := mg.Instret()

	step := total/97 + 1
	for crashAt := uint64(1); crashAt < total; crashAt += step {
		m, _ := New(cp, testConfig(16))
		if err := m.RunUntil(crashAt); err != nil {
			t.Fatal(err)
		}
		if m.Done() {
			break
		}
		img, _ := m.Crash()
		r, _, err := Recover(img)
		if err != nil {
			t.Fatalf("crash@%d: %v", crashAt, err)
		}
		if err := r.Run(); err != nil {
			t.Fatalf("crash@%d resume: %v", crashAt, err)
		}
		if !reflect.DeepEqual(r.Output(0), goldenOut) {
			t.Fatalf("crash@%d: output %v, want %v", crashAt, r.Output(0), goldenOut)
		}
	}
}

func TestDoubleCrashRecovery(t *testing.T) {
	// Crash, recover, crash again mid-resume, recover again.
	src := sumProgram(200)
	cp := compileFor(t, src, 16)

	mg, _ := New(cp, testConfig(16))
	if err := mg.Run(); err != nil {
		t.Fatal(err)
	}
	golden := mg.Output(0)

	m, _ := New(cp, testConfig(16))
	if err := m.RunUntil(400); err != nil {
		t.Fatal(err)
	}
	img, _ := m.Crash()
	r1, _, err := Recover(img)
	if err != nil {
		t.Fatal(err)
	}
	if err := r1.RunUntil(300); err != nil {
		t.Fatal(err)
	}
	if !r1.Done() {
		img2, _ := r1.Crash()
		r2, _, err := Recover(img2)
		if err != nil {
			t.Fatal(err)
		}
		if err := r2.Run(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r2.Output(0), golden) {
			t.Errorf("double-crash output = %v, want %v", r2.Output(0), golden)
		}
	}
}

// callSum uses a helper function so the call/return machinery (in-memory
// stack, token table, SP) is exercised across crashes.
func callSum(n int64) *prog.Program {
	bd := prog.NewBuilder("callsum")

	addf := bd.Func("addf") // A0 += A1; memory trace at heap+16
	addf.Block()
	addf.Add(isa.A0, isa.A0, isa.A1)
	addf.MovI(20, int64(HeapBase))
	addf.Store(20, 16, isa.A0)
	addf.Ret()

	main := bd.Func("main")
	entry := main.Block()
	header := main.Block()
	body := main.Block()
	exit := main.Block()

	// Register plan: r8 = i, r9 = n, A0/A1 = call arguments. (A0 and A1 are
	// r0 and r1, so the loop state must live elsewhere.)
	main.SetBlock(entry)
	main.MovI(isa.SP, int64(StackBase(0)))
	main.MovI(8, 0) // i
	main.MovI(9, n)
	main.MovI(isa.A0, 0) // accumulator lives in A0 across calls
	main.Br(header)

	main.SetBlock(header)
	main.BrIf(8, isa.CondGE, 9, exit, body)

	main.SetBlock(body)
	main.Mov(isa.A1, 8)
	main.Call(addf)
	main.AddI(8, 8, 1)
	main.Br(header)

	main.SetBlock(exit)
	main.Emit(isa.A0)
	main.Halt()
	bd.SetThreadEntries(main)
	return bd.Program()
}

func TestCallCrashRecovery(t *testing.T) {
	src := callSum(40)
	cp := compileFor(t, src, 16)

	mg, _ := New(cp, testConfig(16))
	if err := mg.Run(); err != nil {
		t.Fatal(err)
	}
	golden := mg.Output(0)
	want := uint64(40 * 39 / 2)
	if len(golden) != 1 || golden[0] != want {
		t.Fatalf("golden output = %v, want [%d]", golden, want)
	}
	total := mg.Instret()

	step := total/61 + 1
	for crashAt := uint64(1); crashAt < total; crashAt += step {
		m, _ := New(cp, testConfig(16))
		if err := m.RunUntil(crashAt); err != nil {
			t.Fatal(err)
		}
		if m.Done() {
			break
		}
		img, _ := m.Crash()
		r, _, err := Recover(img)
		if err != nil {
			t.Fatalf("crash@%d: %v", crashAt, err)
		}
		if err := r.Run(); err != nil {
			t.Fatalf("crash@%d resume: %v", crashAt, err)
		}
		if !reflect.DeepEqual(r.Output(0), golden) {
			t.Fatalf("crash@%d: output %v, want %v", crashAt, r.Output(0), golden)
		}
	}
}

func TestTable1Renders(t *testing.T) {
	s := DefaultConfig().Table1()
	for _, want := range []string{"L1 D-Cache", "Proxy path", "Back-end proxy"} {
		if !contains(s, want) {
			t.Errorf("Table1 missing %q", want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		func() bool {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		}())
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 0
	if cfg.Validate() == nil {
		t.Error("0 cores accepted")
	}
	cfg = DefaultConfig()
	cfg.Threshold = 0
	if cfg.Validate() == nil {
		t.Error("0 threshold accepted with Capri on")
	}
	cfg.Capri = false
	if cfg.Validate() != nil {
		t.Error("baseline config with 0 threshold rejected")
	}
	cfg = DefaultConfig()
	cfg.LoadOverlap = 0
	if cfg.Validate() == nil {
		t.Error("0 load overlap accepted")
	}
}

func TestStatsPopulated(t *testing.T) {
	cp := compileFor(t, sumProgram(100), 32)
	m, _ := New(cp, testConfig(32))
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.Instret == 0 || s.Cycles == 0 || s.Stores == 0 {
		t.Errorf("stats = %+v", s)
	}
	if s.Boundaries == 0 || s.Regions == 0 {
		t.Errorf("no regions tracked: %+v", s)
	}
	if s.AvgRegionInsts <= 0 || s.AvgRegionStores <= 0 {
		t.Errorf("region shape stats missing: %+v", s)
	}
	if s.NVMWrites == 0 {
		t.Error("no NVM writes recorded")
	}
}

func TestBackEndNeverOverflows(t *testing.T) {
	// A store-dense program at a small threshold: the compiler/architecture
	// contract must keep the back-end within capacity (invariant 3).
	bd := prog.NewBuilder("dense")
	f := bd.Func("main")
	entry := f.Block()
	header := f.Block()
	body := f.Block()
	exit := f.Block()

	f.SetBlock(entry)
	f.MovI(0, 0)
	f.MovI(1, 50)
	f.MovI(2, int64(HeapBase))
	f.Br(header)
	f.SetBlock(header)
	f.BrIf(0, isa.CondGE, 1, exit, body)
	f.SetBlock(body)
	for i := 0; i < 30; i++ {
		f.Store(2, int64(8*i), 0)
	}
	f.AddI(0, 0, 1)
	f.Br(header)
	f.SetBlock(exit)
	f.Halt()

	cp := compileFor(t, bd.Program(), 8)
	m, _ := New(cp, testConfig(8))
	if err := m.Run(); err != nil {
		t.Fatalf("back-end overflow or other fatal: %v", err)
	}
}
