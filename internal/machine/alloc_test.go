package machine

import (
	"testing"

	"capri/internal/audit"
	"capri/internal/isa"
	"capri/internal/prog"
)

// campaignConfig is the crash campaigns' geometry (fault.Target.Build for
// progen and synthetic targets): threshold 64 and near-degenerate caches, so
// dirty lines reach the memory controller and recovery has undo work.
func campaignConfig() Config {
	cfg := DefaultConfig()
	cfg.Threshold = 64
	cfg.L1Size, cfg.L1Ways = 256, 1
	cfg.L2Size, cfg.L2Ways = 512, 1
	cfg.DRAMSize = 1 << 14
	cfg.MaxSteps = 50_000_000
	return cfg
}

// crashPoint runs one audited crash point the way the crash campaigns do:
// build, tap, run to the crash, harvest, recover under the same tap, resume.
func crashPoint(p *prog.Program, cfg Config, at uint64) error {
	m, err := New(p, cfg)
	if err != nil {
		return err
	}
	rec := audit.NewFlightRecorder(audit.DefaultRecorderCap)
	aud := audit.NewAuditor(m.AuditOptions())
	aud.AttachRecorder(rec)
	tap := audit.Tee(rec, aud)
	m.SetTap(tap)
	if err := m.RunUntil(at); err != nil {
		return err
	}
	img, err := m.Crash()
	if err != nil {
		return err
	}
	rm, _, err := RecoverInstrumented(img, nil, tap)
	if err != nil {
		return err
	}
	if err := rm.Run(); err != nil {
		return err
	}
	return aud.Err()
}

// crashPointTarget is the two-thread lock-and-store workload at campaign
// geometry, with its crash point halfway through the golden run.
func crashPointTarget(t testing.TB) (*prog.Program, Config, uint64) {
	cfg := campaignConfig()
	p := compileFor(t, mtCounterProgram(40), cfg.Threshold)
	m, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return p, cfg, m.Instret() / 2
}

// TestCrashPointAllocsBounded pins the allocations of one audited crash
// point: every machine is built at its architectural size, rings are carved
// at their bound, the auditor's pending stores live in carved per-core
// queues, its NVM shadow, the NVM and the architectural memory are page
// tables that carve pages at most four to a chunk (the first page together
// with the first directory), the auditor's sync-persist watermarks start in
// slots inside the auditor, the flight recorder's ring grows in chunks
// with the run, the machine's one monitoring window is shared by every
// path and, like the auditor's mirror of it, is a flat table that allocates
// its slots once, boundaries and their payloads live in per-core rings that
// never allocate once carved, drain bookings ride in the back end's marks
// ring, and a crash image and each machine recovered from it share the NVM's
// pages copy-on-write: a clone allocates only its page directory, and a
// recovered machine copies a page on its first write to it, into backings
// that double up to four pages. The image's streams, payloads and outputs
// copy into one backing per kind. The bound is the measured 87 plus 5%.
func TestCrashPointAllocsBounded(t *testing.T) {
	p, cfg, at := crashPointTarget(t)
	const bound = 91
	got := testing.AllocsPerRun(5, func() {
		if err := crashPoint(p, cfg, at); err != nil {
			t.Fatal(err)
		}
	})
	if got > bound {
		t.Errorf("one crash point made %.0f allocations, want <= %d", got, bound)
	}
}

// withThreads returns p with n threads, all entering main: the program is
// otherwise unchanged, so only the thread count varies.
func withThreads(p *prog.Program, n int) *prog.Program {
	q := *p
	q.ThreadEntries = make([]int, n)
	return &q
}

// TestNewAllocsIndependentOfCores: every per-core structure of a machine is
// carved from one backing per element type, so building one costs the same
// number of allocations at every thread count.
func TestNewAllocsIndependentOfCores(t *testing.T) {
	cfg := campaignConfig()
	p := compileFor(t, sumProgram(10), cfg.Threshold)
	allocs := func(n int) float64 {
		q := withThreads(p, n)
		return testing.AllocsPerRun(10, func() {
			if _, err := New(q, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	one := allocs(1)
	for _, n := range []int{4, 8} {
		if got := allocs(n); got != one {
			t.Errorf("New with %d threads made %.0f allocations, with 1 thread %.0f", n, got, one)
		}
	}
}

// BenchmarkMachineNew measures building an eight-thread machine at campaign
// geometry (allocs/op is per machine).
func BenchmarkMachineNew(b *testing.B) {
	cfg := campaignConfig()
	p := withThreads(compileFor(b, sumProgram(10), cfg.Threshold), 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCrashPoint measures one audited crash point of the two-thread
// lock-and-store workload at campaign geometry (allocs/op is per point).
func BenchmarkCrashPoint(b *testing.B) {
	p, cfg, at := crashPointTarget(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := crashPoint(p, cfg, at); err != nil {
			b.Fatal(err)
		}
	}
}

// ringCounterProgram is a two-thread contention target with a bounded
// footprint: each iteration fetch-and-adds a shared counter and stores into
// the thread's private 4096-word ring, so on campaign caches dirty lines
// reach the memory controller every few stores, proxy entries race their
// writebacks, and the two rings' words overflow the monitoring window's
// prune bound, while the set of words touched stops growing after the first
// lap.
func ringCounterProgram(iters int64) *prog.Program {
	bd := prog.NewBuilder("ringcounter")
	worker := func(name string, tid int64) *prog.FuncBuilder {
		f := bd.Func(name)
		entry, header, body, exit := f.Block(), f.Block(), f.Block(), f.Block()
		const (
			rI, rN, rCnt, rPriv = isa.Reg(8), isa.Reg(9), isa.Reg(10), isa.Reg(11)
			rTmp, rOne, rAddr   = isa.Reg(12), isa.Reg(13), isa.Reg(14)
		)
		f.SetBlock(entry)
		f.MovI(isa.SP, int64(StackBase(int(tid))))
		f.MovI(rI, 0)
		f.MovI(rN, iters)
		f.MovI(rCnt, int64(HeapBase))
		f.MovI(rPriv, int64(HeapBase)+(1<<16)*(tid+1))
		f.MovI(rOne, 1)
		f.Br(header)

		f.SetBlock(header)
		f.BrIf(rI, isa.CondGE, rN, exit, body)

		f.SetBlock(body)
		f.AtomicAdd(rTmp, rCnt, 0, rOne)
		f.AndI(rAddr, rI, 4095)
		f.MulI(rAddr, rAddr, 8)
		f.Add(rAddr, rAddr, rPriv)
		f.MulI(rTmp, rI, 3)
		f.Store(rAddr, 0, rTmp)
		f.AddI(rI, rI, 1)
		f.Br(header)

		f.SetBlock(exit)
		f.Emit(rI)
		f.Halt()
		return f
	}
	bd.SetThreadEntries(worker("worker0", 0), worker("worker1", 1))
	return bd.Program()
}

// bookkeepingCounts counts the controller bookkeeping a run does: words
// written back (window notes), arrivals the window invalidated (hits),
// boundaries arriving at the back end (drain bookings) and drains retired.
type bookkeepingCounts struct{ notes, hits, booked, retired int }

func (b *bookkeepingCounts) Tap(e audit.Event) {
	switch e.Kind {
	case audit.EvWritebackWord:
		b.notes++
	case audit.EvBackArrive:
		if e.Flags.Has(audit.FlagBoundary) {
			b.booked++
		} else if e.Flags.Has(audit.FlagWindowHit) {
			b.hits++
		}
	case audit.EvDrain:
		b.retired++
	}
}

// TestControllerBookkeepingAllocFree pins the memory controller's
// bookkeeping at zero allocations once warmed up: the monitoring window is
// one flat table that grows only when full and prunes in place, and each
// core's phase-2 drain bookings ride in its back end's marks ring beside the
// region markers, so noting writebacks, window hits, booking drains and
// retiring them allocate nothing on a contention target at campaign geometry.
func TestControllerBookkeepingAllocFree(t *testing.T) {
	cfg := campaignConfig()
	m, err := New(compileFor(t, ringCounterProgram(1_000_000), cfg.Threshold), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var n bookkeepingCounts
	m.SetTap(&n)
	at := uint64(200_000)
	if err := m.RunUntil(at); err != nil {
		t.Fatal(err)
	}
	n = bookkeepingCounts{}
	pruned := false
	// One measured run of 20 segments: AllocsPerRun truncates its average
	// to a whole number, so a rare allocation must not be averaged away.
	got := testing.AllocsPerRun(1, func() {
		for range 20 {
			last := m.window.Len()
			at += 5_000
			if err := m.RunUntil(at); err != nil {
				t.Fatal(err)
			}
			// The window shrinks only when Note prunes it.
			pruned = pruned || m.window.Len() < last
		}
	})
	if got != 0 {
		t.Errorf("20 warm run segments made %.0f allocations, want 0", got)
	}
	if n.notes == 0 || n.hits == 0 || n.booked == 0 || n.retired == 0 || !pruned {
		t.Errorf("segments did not exercise the bookkeeping: %+v, window pruned %v", n, pruned)
	}
}
