package capri

// Dispatch-equivalence differential tests: the run loop's strict quantum
// (one core runs many instructions per run-queue pop, up to the highest
// cycle at which the scheduler would still pick it) must dispatch exactly
// the reference schedule, in which every instruction goes to the
// minimum-(cycle, core ID) core. The reference is the same machine retiring
// one instruction per RunUntil entry: each entry rebuilds the run queue and
// stops at the first retirement, so no quantum carries a core past it.
// The only divergence either run is permitted is Steps and the run-queue op
// count. Everything else — cycles, retirement, memory and NVM images,
// committed output, the full per-cause cycle ledger, and the complete audit
// event stream — must match exactly, or the quantum is not a shortcut but
// a different schedule.

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"capri/internal/audit"
	"capri/internal/compile"
	"capri/internal/machine"
	"capri/internal/prog"
	"capri/internal/progen"
	"capri/internal/workload"
)

// eventDigest folds every field of every audit event into one FNV-1a hash:
// two machines with equal digests produced indistinguishable event streams.
type eventDigest struct {
	sum uint64
	n   uint64
}

func (d *eventDigest) Tap(e audit.Event) {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(d.sum) // chain, so event order matters
	put(uint64(e.Kind))
	put(uint64(e.Flags))
	put(uint64(uint32(e.Core)))
	put(e.Cycle)
	put(e.Addr)
	put(e.Seq)
	put(e.Region)
	put(e.Val)
	put(e.Val2)
	put(uint64(e.Count))
	d.sum = h.Sum64()
	d.n++
}

// observedRun executes p under the given machine configuration and returns
// the final image, the full stats, and (when tapped) the audit stream
// digest. With stepped set it retires one instruction per RunUntil entry.
func observedRun(t *testing.T, what string, p *prog.Program, threads int, cfg machine.Config, tap, stepped bool) (machineImage, machine.Stats, eventDigest) {
	t.Helper()
	m, err := machine.New(p, cfg)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	var dig eventDigest
	if tap {
		m.SetTap(&dig)
	}
	for stepped && !m.Done() {
		if err := m.RunUntil(m.Instret() + 1); err != nil {
			t.Fatalf("%s (stepped): %v", what, err)
		}
	}
	if err := m.Run(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	return imageOf(m, threads), m.Stats(), dig
}

// comparableStats strips the fields that legitimately depend on how a run
// was entered: Steps and the run-queue op count depend on how many run-loop
// entries and queue pops the run took. Everything else — every simulated
// observable — must match exactly.
func comparableStats(s machine.Stats) machine.Stats {
	s.Steps = 0
	s.SchedQueueOps = 0
	return s
}

// requireDispatchIdentical runs p three ways: the strict quantum tapped and
// untapped, and the one-instruction reference tapped. The tapped pair must
// agree on every simulated observable and the chained audit digest, which
// pins the exact event order, so a quantum that let one core run a single
// instruction past its turn would surface. The untapped leg — the
// configuration the figure sweeps and the repository benchmark run under —
// must match the tapped quantum run down to Steps: the tap only observes.
func requireDispatchIdentical(t *testing.T, what string, p *prog.Program, threads, threshold int) {
	t.Helper()
	cfg := diffConfig(threads, threshold)
	qImg, qStats, qDig := observedRun(t, what, p, threads, cfg, true, false)
	sImg, sStats, sDig := observedRun(t, what, p, threads, cfg, true, true)
	requireIdentical(t, what, qImg, sImg)
	if a, b := comparableStats(qStats), comparableStats(sStats); !reflect.DeepEqual(a, b) {
		t.Errorf("%s: stats diverge beyond Steps/run-queue counters:\n  quantum %+v\n  stepped %+v", what, a, b)
	}
	if qDig != sDig {
		t.Errorf("%s: audit streams diverge: quantum %d events (%#x), stepped %d events (%#x)",
			what, qDig.n, qDig.sum, sDig.n, sDig.sum)
	}
	uImg, uStats, _ := observedRun(t, what, p, threads, cfg, false, false)
	requireIdentical(t, what+" (untapped)", uImg, qImg)
	if !reflect.DeepEqual(uStats, qStats) {
		t.Errorf("%s: untapped stats diverge:\n  untapped %+v\n  tapped   %+v", what, uStats, qStats)
	}
}

// TestDispatchEquivalenceBenchmarks sweeps every paper benchmark through
// both schedules and requires indistinguishable outcomes.
func TestDispatchEquivalenceBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("dispatch equivalence sweep is not short")
	}
	for _, b := range workload.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			src := b.Build(benchScale)
			res, err := compile.Compile(src, compile.OptionsForLevel(compile.LevelLICM, 256))
			if err != nil {
				t.Fatal(err)
			}
			requireDispatchIdentical(t, b.Name, res.Program, b.Threads, 256)
		})
	}
}

// TestDispatchEquivalenceMultiCore sweeps the scheduler geometries: 2, 4,
// and 8 cores change the run-queue tie-break pattern, how long a quantum
// runs before another core takes over, and the phase alignment of store
// bursts.
func TestDispatchEquivalenceMultiCore(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-core dispatch sweep is not short")
	}
	for _, threads := range []int{2, 4, 8} {
		for s := 0; s < 6; s++ {
			shape := progen.Config{Funcs: 2, MaxDepth: 2, MaxStmts: 5, MaxLoopTrip: 5, Threads: threads}
			if s%2 == 1 {
				shape.Barriers = true
			}
			name := fmt.Sprintf("cores%d_seed%d", threads, s)
			src := progen.Generate(uint64(threads*1000+s)*0x9e3779b9+7, shape)
			res, err := compile.Compile(src, compile.OptionsForLevel(compile.LevelLICM, 64))
			if err != nil {
				t.Fatalf("%s: compile: %v", name, err)
			}
			requireDispatchIdentical(t, name, res.Program, threads, 64)
			if t.Failed() {
				t.Fatalf("%s: stopping after first divergence", name)
			}
		}
	}
}

// TestDispatchEquivalenceProgen is the property-based half: generated
// programs reach block shapes and stall interleavings the curated
// benchmarks do not (short blocks, dense branches, barrier lockstep with
// tiny quanta).
func TestDispatchEquivalenceProgen(t *testing.T) {
	if testing.Short() {
		t.Skip("dispatch progen sweep is not short")
	}
	const seeds = 104 // 4 shapes x 26 seeds, mirroring the store sweep
	shapes := []progen.Config{
		{Funcs: 3, MaxDepth: 3, MaxStmts: 5, MaxLoopTrip: 6, Threads: 1},
		{Funcs: 2, MaxDepth: 2, MaxStmts: 4, MaxLoopTrip: 4, Threads: 2},
		{Funcs: 4, MaxDepth: 3, MaxStmts: 6, MaxLoopTrip: 5, Threads: 1},
		{Funcs: 2, MaxDepth: 2, MaxStmts: 4, MaxLoopTrip: 4, Threads: 2, Barriers: true},
	}
	for s := 0; s < seeds; s++ {
		shape := shapes[s%len(shapes)]
		name := fmt.Sprintf("seed%d_t%d", s, shape.Threads)
		src := progen.Generate(uint64(s)*0x9e3779b9+1, shape)
		res, err := compile.Compile(src, compile.OptionsForLevel(compile.LevelLICM, 64))
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		requireDispatchIdentical(t, name, res.Program, shape.Threads, 64)
		if t.Failed() {
			t.Fatalf("%s: stopping after first divergence", name)
		}
	}
}
