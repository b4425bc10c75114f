package workload

import (
	"testing"

	"capri/internal/compile"
	"capri/internal/isa"
	"capri/internal/machine"
	"capri/internal/prog"
	"capri/internal/recovery"
)

// barrierProgram builds nthreads workers that alternate private phases with
// barrier episodes: phase k writes f(k, tid) into the worker's slot, then
// all threads synchronize, then each reads its *neighbour's* slot — a value
// only the barrier makes safe to read. The emitted digest is sensitive to
// any barrier or recovery bug.
func barrierProgram(nthreads int, phases int64) *prog.Program {
	bd := prog.NewBuilder("barrier")
	barrierBase := heapAt(40)
	slotsBase := heapAt(40) + 64

	var workers []*prog.FuncBuilder
	for tid := 0; tid < nthreads; tid++ {
		f := bd.Func("w")
		entry := f.Block()
		phaseHdr := f.Block()
		phaseBody := f.Block()
		exit := f.Block()

		const (
			rPhase = isa.Reg(0)
			rNPh   = isa.Reg(1)
			rSlots = isa.Reg(2)
			rMine  = isa.Reg(3) // my slot address
			rNext  = isa.Reg(4) // neighbour slot address
			rVal   = isa.Reg(5)
			rAcc   = isa.Reg(6)
		)

		f.SetBlock(entry)
		f.MovI(isa.SP, int64(machine.StackBase(tid)))
		f.MovI(rPhase, 0)
		f.MovI(rNPh, phases)
		f.MovI(rSlots, int64(slotsBase))
		f.AddI(rMine, rSlots, int64(8*tid))
		f.AddI(rNext, rSlots, int64(8*((tid+1)%nthreads)))
		f.MovI(rAcc, 0)
		f.Br(phaseHdr)

		f.SetBlock(phaseHdr)
		f.BrIf(rPhase, isa.CondGE, rNPh, exit, phaseBody)

		f.SetBlock(phaseBody)
		// Publish f(phase, tid) = phase*31 + tid into my slot.
		f.MulI(rVal, rPhase, 31)
		f.AddI(rVal, rVal, int64(tid))
		f.Store(rMine, 0, rVal)
		emitBarrier(f, barrierBase, int64(nthreads))
		// Read the neighbour's published value; only valid post-barrier.
		f.Load(rVal, rNext, 0)
		f.Add(rAcc, rAcc, rVal)
		emitBarrier(f, barrierBase, int64(nthreads))
		f.AddI(rPhase, rPhase, 1)
		f.Br(phaseHdr)

		f.SetBlock(exit)
		f.Emit(rAcc)
		f.Halt()
		workers = append(workers, f)
	}
	bd.SetThreadEntries(workers...)
	return bd.Program()
}

func barrierConfig(threads, threshold int) machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Cores = threads
	cfg.Threshold = threshold
	cfg.L2Size = 256 << 10
	cfg.DRAMSize = 1 << 20
	cfg.MaxSteps = 100_000_000
	return cfg
}

func TestBarrierBaselineCorrect(t *testing.T) {
	const threads, phases = 3, 8
	p := barrierProgram(threads, phases)
	cfg := barrierConfig(threads, 32)
	cfg.Capri = false
	m, err := machine.New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// Each thread accumulates sum over phases of (phase*31 + neighbour).
	for tid := 0; tid < threads; tid++ {
		want := uint64(0)
		for k := int64(0); k < phases; k++ {
			want += uint64(k*31 + int64((tid+1)%threads))
		}
		if got := m.Output(tid)[0]; got != want {
			t.Errorf("thread %d acc = %d, want %d", tid, got, want)
		}
	}
}

func TestBarrierCrashRecoverySweep(t *testing.T) {
	// The hard multi-threaded recovery case: crashes land inside barrier
	// episodes (between the arrival fetch-and-add and the release), and the
	// barrier state itself lives in persistent memory. Recovery must land
	// every thread on a consistent region boundary and the barrier must
	// still release everyone.
	const threads, phases = 3, 6
	p := barrierProgram(threads, phases)
	res, err := compile.Compile(p, compile.OptionsForLevel(compile.LevelLICM, 16))
	if err != nil {
		t.Fatal(err)
	}
	cfg := barrierConfig(threads, 16)

	g, err := recovery.RunGolden(res.Program, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Every crashed run goes through the crash driver: the auditor, the
	// conflicting-undo, detectability and recovery-order checks, and the
	// golden outputs and whole memory image after the resume.
	points := 40
	if testing.Short() {
		points = 10
	}
	step := g.Instret/uint64(points) + 1
	crashed := 0
	for crashAt := step; crashAt < g.Instret; crashAt += step {
		o := recovery.Run(res.Program, cfg, g, crashAt, recovery.Faults{})
		if o.Err != nil {
			t.Errorf("crash@%d: %v", crashAt, o.Err)
		}
		if o.Vacuous {
			break
		}
		crashed++
	}
	if crashed == 0 {
		t.Fatal("no crash point fell inside the run")
	}
}
