package machine

import (
	"testing"

	"capri/internal/audit"
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
// with the first directory), the flight recorder's ring grows in chunks
// with the run, the machine's one monitoring window is shared by every
// path, boundaries and their payloads live in per-core rings that never
// allocate once carved, and crash images copy into one backing per kind.
// The bound is the measured 106 plus 5%.
func TestCrashPointAllocsBounded(t *testing.T) {
	p, cfg, at := crashPointTarget(t)
	const bound = 111
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
