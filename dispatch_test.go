package capri

// Dispatch-equivalence differential tests: the pre-decoded threaded core with
// fused superinstructions must be cycle-for-cycle and image-identical to the
// reference per-instruction switch core. Both cores run the identical machine
// configuration — the only divergence either run is permitted is Steps (the
// threaded core retires whole decoded runs per dispatch, by design) and the
// decode-cache counters (zero under the switch core). Everything else —
// cycles, retirement, memory and NVM images, committed output, the full
// per-cause cycle ledger, and the complete audit event stream — must match
// exactly, or the threaded core is not an optimization but a different
// machine.

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

// dispatchRun executes p under the given machine configuration and returns
// the final image, the full stats, and (when tapped) the audit stream digest.
// The untapped legs matter on their own: they are the configuration the
// perf harness and the figure sweeps run under.
func dispatchRun(t *testing.T, what string, p *prog.Program, threads int, cfg machine.Config, tap bool) (machineImage, machine.Stats, eventDigest) {
	t.Helper()
	m, err := machine.New(p, cfg)
	if err != nil {
		t.Fatalf("%s (%v): %v", what, cfg.Dispatch, err)
	}
	var dig eventDigest
	if tap {
		m.SetTap(&dig)
	}
	if err := m.Run(); err != nil {
		t.Fatalf("%s (%v): %v", what, cfg.Dispatch, err)
	}
	return imageOf(m, threads), m.Stats(), dig
}

// comparableStats strips the fields that legitimately depend on how a run
// was dispatched: Steps counts dispatches (a decoded run retires many
// instructions per step), the decode counters exist only in the threaded
// core, and the run-queue op count depends on how many dispatches the run
// took. Everything else — every simulated observable — must match exactly.
func comparableStats(s machine.Stats) machine.Stats {
	s.Steps = 0
	s.DecodeBlocks, s.DecodeHits, s.DecodeFused = 0, 0, 0
	s.SchedQueueOps = 0
	return s
}

func requireDispatchIdentical(t *testing.T, what string, p *prog.Program, threads, threshold int) {
	t.Helper()
	base := diffConfig(threads, threshold)
	thCfg := base
	thCfg.Dispatch = machine.DispatchThreaded
	swCfg := base
	swCfg.Dispatch = machine.DispatchSwitch

	// Tapped legs: the chained digest pins the exact audit event order, so a
	// fused dispatch that reordered a single launch or drain event would
	// surface.
	thImg, thStats, thDig := dispatchRun(t, what, p, threads, thCfg, true)
	swImg, swStats, swDig := dispatchRun(t, what, p, threads, swCfg, true)
	requireIdentical(t, what, thImg, swImg)
	if a, b := comparableStats(thStats), comparableStats(swStats); !reflect.DeepEqual(a, b) {
		t.Errorf("%s: stats diverge beyond Steps/decode counters:\n  threaded %+v\n  switch   %+v", what, a, b)
	}
	if thDig.n != swDig.n || thDig.sum != swDig.sum {
		t.Errorf("%s: audit streams diverge: threaded %d events (%#x), switch %d events (%#x)",
			what, thDig.n, thDig.sum, swDig.n, swDig.sum)
	}

	// Untapped legs: the NVM image, memory image, and full cycle ledger must
	// be byte-identical to the reference without an audit sink attached too.
	wtImg, wtStats, _ := dispatchRun(t, what, p, threads, thCfg, false)
	wsImg, wsStats, _ := dispatchRun(t, what, p, threads, swCfg, false)
	requireIdentical(t, what+" (untapped)", wtImg, wsImg)
	if a, b := comparableStats(wtStats), comparableStats(wsStats); !reflect.DeepEqual(a, b) {
		t.Errorf("%s: untapped stats diverge beyond Steps/decode counters:\n  threaded %+v\n  switch   %+v", what, a, b)
	}
}

// TestDispatchEquivalenceBenchmarks sweeps every paper benchmark through both
// execution cores and requires indistinguishable outcomes.
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
// and 8 cores change the run-queue tie-break pattern, how often the strict
// quantum cuts a fused run short, and the phase alignment of store bursts.
// Every geometry runs the full equivalence check (threaded vs switch,
// tapped and untapped).
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
// programs reach block shapes, fusion opportunities, and stall interleavings
// the curated benchmarks do not (short blocks, dense branches, barrier
// lockstep with tiny quanta).
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
