package machine

import (
	"testing"

	"capri/internal/isa"
	"capri/internal/prog"
)

// markerLoop builds an uncompiled program that loops n times, storing marker
// to HeapBase every iteration. Two programs built with different markers are
// position-compatible: same functions, blocks, and instruction indices.
func markerLoop(n, marker int64) *prog.Program {
	bd := prog.NewBuilder("marker")
	f := bd.Func("main")
	entry := f.Block()
	header := f.Block()
	body := f.Block()
	exit := f.Block()

	f.SetBlock(entry)
	f.MovI(isa.SP, int64(StackBase(0)))
	f.MovI(0, 0) // i
	f.MovI(1, n)
	f.MovI(3, int64(HeapBase))
	f.Br(header)

	f.SetBlock(header)
	f.BrIf(0, isa.CondGE, 1, exit, body)

	f.SetBlock(body)
	f.MovI(2, marker)
	f.Store(3, 0, 2)
	f.AddI(0, 0, 1)
	f.Br(header)

	f.SetBlock(exit)
	f.Halt()
	return bd.Program()
}

// TestReplaceProgramDropsDecodedCode pins the block-cache invalidation bug:
// swapping the loaded program mid-run must drop every per-core block cache,
// or cores keep executing instructions of the dead program. The loop body
// stores a marker each iteration; after the swap the surviving iterations
// must store the *new* marker.
func TestReplaceProgramDropsDecodedCode(t *testing.T) {
	cfg := testConfig(64)
	cfg.Capri = false
	cfg.Cores = 1
	m, err := New(markerLoop(200, 111), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the cache well inside the loop, then hot-patch.
	if err := m.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	if m.Done() {
		t.Fatal("program finished before the swap point")
	}
	if err := m.ReplaceProgram(markerLoop(200, 222)); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.MemSnapshot()[HeapBase]; got != 222 {
		t.Errorf("final marker = %d, want 222 (stale cached instructions executed after program replace)", got)
	}
}

func TestReplaceProgramRejectsIncompatiblePC(t *testing.T) {
	cfg := testConfig(64)
	cfg.Capri = false
	cfg.Cores = 1
	m, err := New(markerLoop(200, 111), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	// A program with no room for the cores' current PCs must be refused and
	// the old program kept loaded.
	bd := prog.NewBuilder("tiny")
	f := bd.Func("main")
	f.Block()
	f.Halt()
	if err := m.ReplaceProgram(bd.Program()); err == nil {
		t.Fatal("incompatible replacement accepted")
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.MemSnapshot()[HeapBase]; got != 111 {
		t.Errorf("final marker = %d, want 111 (old program should have kept running)", got)
	}
}

// TestResumeAtDropsBlockCaches pins the recovery half of the same bug:
// reinstalling core state must invalidate the block-inst cache, since the
// new PC may live in a different program generation than the cache was
// filled from.
func TestResumeAtDropsBlockCaches(t *testing.T) {
	cp := compileFor(t, sumProgram(500), 16)
	m, err := New(cp, testConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunUntil(200); err != nil {
		t.Fatal(err)
	}
	c := m.cores[0]
	if c.blkInsts == nil {
		t.Fatal("block cache never warmed — test is not exercising the invalidation path")
	}
	c.resumeAt(CoreRecord{Fn: int32(c.fn), Blk: int32(c.blk)})
	if c.blkInsts != nil || c.blkFn != -1 || c.blkId != -1 {
		t.Errorf("stale block cache after resumeAt: blkInsts=%v blkFn=%d blkId=%d",
			c.blkInsts != nil, c.blkFn, c.blkId)
	}
	if c.svcAt != 0 {
		t.Errorf("svcAt = %d after resumeAt, want 0 (service horizon must be recomputed for rebuilt proxy state)", c.svcAt)
	}
}
