package main

import (
	"fmt"
	"reflect"
	"time"

	"capri/internal/audit"
	"capri/internal/compile"
	"capri/internal/fault"
	"capri/internal/figures"
	"capri/internal/machine"
	"capri/internal/prog"
	"capri/internal/recovery"
	"capri/internal/stats"
	"capri/internal/workload"
)

// prepared is a workload after set-up: its round function plus what set-up
// produced. Round i runs shape i % shapes; rounds of one shape must produce
// identical digests.
type prepared struct {
	shapes    int
	round     func(r *round, shape int)
	compileFP [][32]byte // fingerprints of the programs set-up compiled
	skipped   []string   // crash points not drawn because they fall in a known hang window
}

// workloadDef names a workload, the rounds a run needs at least (enough to
// cover every shape and repeat one), and its set-up.
type workloadDef struct {
	name      string
	minRounds int
	setup     func(seed uint64, small bool, s *setupRec) (*prepared, error)
}

var workloads = []workloadDef{
	{"sweep-st", 2, func(seed uint64, small bool, s *setupRec) (*prepared, error) {
		benches := append(workload.BySuite(workload.SuiteSPEC), workload.BySuite(workload.SuiteSTAMP)...)
		return setupSweep(benches, seed, small, s)
	}},
	{"sweep-mt", 2, func(seed uint64, small bool, s *setupRec) (*prepared, error) {
		return setupSweep(workload.BySuite(workload.SuiteSplash), seed, small, s)
	}},
	{"compile-matrix", 2, setupMatrix},
	{"crash-audit", crashShapes, setupCrashAudit},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// rng is splitmix64: every input the benchmark makes derives from -seed.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// shuffle permutes xs in place (Fisher-Yates).
func shuffle[T any](r *rng, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// seededOrder returns 0..n-1 shuffled by seed.
func seededOrder(n int, seed uint64) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	shuffle(&rng{seed}, order)
	return order
}

// buildSources builds each benchmark's source program at figure scale.
func buildSources(benches []workload.Benchmark, s *setupRec) []*prog.Program {
	srcs := make([]*prog.Program, len(benches))
	for i, b := range benches {
		t := time.Now()
		srcs[i] = b.Build(1)
		s.timed(setupBuild, t)
	}
	return srcs
}

// ---- sweep-st / sweep-mt ---------------------------------------------------

// sweepCell is one run of a Fig. 8 sweep: the volatile baseline of the
// uncompiled source (threshold 0) or one +licm Capri configuration.
type sweepCell struct {
	prog      int
	threshold int
}

type sweep struct {
	benches []workload.Benchmark
	srcs    []*prog.Program
	cells   []sweepCell
	order   []int // run order of cells
}

// cellResult is what one sweep cell hands to the oracle and the digests.
type cellResult struct {
	outputs [][]uint64
	cycles  uint64
	digest  [32]byte
	fp      [32]byte
}

func setupSweep(benches []workload.Benchmark, seed uint64, small bool, s *setupRec) (*prepared, error) {
	thresholds := figures.Fig8Thresholds
	if small {
		benches, thresholds = benches[:1], []int{64, compile.DefaultThreshold}
	}
	sw := &sweep{benches: benches, srcs: buildSources(benches, s)}
	for i := range benches {
		sw.cells = append(sw.cells, sweepCell{prog: i})
		for _, th := range thresholds {
			sw.cells = append(sw.cells, sweepCell{prog: i, threshold: th})
		}
	}
	// The seed shuffles the cells; each program's baseline then moves to
	// the first of its program's positions, so every Capri cell can check
	// its outputs against the baseline inside its own op.
	sw.order = seededOrder(len(sw.cells), seed)
	first := map[int]int{}
	for pos, ci := range sw.order {
		if _, ok := first[sw.cells[ci].prog]; !ok {
			first[sw.cells[ci].prog] = pos
		}
	}
	for pos, ci := range sw.order {
		if c := sw.cells[ci]; c.threshold == 0 {
			f := first[c.prog]
			sw.order[pos], sw.order[f] = sw.order[f], sw.order[pos]
		}
	}
	return &prepared{shapes: 1, round: func(r *round, _ int) { sw.round(r) }}, nil
}

// sweepConfig is the Fig. 8 figure geometry (figures.Harness): Table 1 with
// the L2 and DRAM cache scaled down to the synthetic working sets.
func sweepConfig(threads, threshold int) machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Capri = threshold > 0
	if cfg.Capri {
		cfg.Threshold = threshold
	}
	if threads > cfg.Cores {
		cfg.Cores = threads
	}
	cfg.L2Size = 2 << 20
	cfg.DRAMSize = 16 << 20
	return cfg
}

func (sw *sweep) label(c sweepCell) string {
	if c.threshold == 0 {
		return sw.benches[c.prog].Name + " baseline"
	}
	return fmt.Sprintf("%s +licm@%d", sw.benches[c.prog].Name, c.threshold)
}

func (sw *sweep) round(r *round) {
	simD := make([][32]byte, len(sw.cells))
	fps := make([][32]byte, len(sw.cells))
	base := make([]cellResult, len(sw.srcs))
	at256 := make([]uint64, len(sw.srcs))
	for _, ci := range sw.order {
		c := sw.cells[ci]
		r.beginOp()
		res, err := sw.cell(r, c, &base[c.prog])
		r.endOp(sw.label(c), err)
		simD[ci], fps[ci] = res.digest, res.fp
		switch {
		case c.threshold == 0:
			base[c.prog] = res
		case c.threshold == compile.DefaultThreshold:
			at256[c.prog] = res.cycles
		}
	}
	var compD [][32]byte
	for ci, c := range sw.cells {
		if c.threshold > 0 {
			compD = append(compD, fps[ci])
		}
	}
	var norms []float64
	for p := range sw.srcs {
		if base[p].cycles > 0 {
			norms = append(norms, float64(at256[p])/float64(base[p].cycles))
		}
	}
	r.overheadPct = (stats.Geomean(norms) - 1) * 100
	r.simDigest = combine(simD)
	r.compileDigest = combine(compD)
}

// cell runs one sweep cell cold: compile (Capri cells), a fresh machine,
// and a run to completion. A Capri cell's committed outputs must equal its
// program's baseline outputs.
func (sw *sweep) cell(r *round, c sweepCell, base *cellResult) (cellResult, error) {
	var out cellResult
	p := sw.srcs[c.prog]
	if c.threshold > 0 {
		t := time.Now()
		res, err := compile.Compile(p, compile.OptionsForLevel(compile.LevelLICM, c.threshold))
		r.timed(layerCompile, t)
		if err != nil {
			return out, err
		}
		p = res.Program
		r.sim.comp.add(res.Stats)
	}
	t := time.Now()
	m, err := machine.New(p, sweepConfig(sw.benches[c.prog].Threads, c.threshold))
	r.timed(layerNew, t)
	if err != nil {
		return out, err
	}
	t = time.Now()
	err = m.Run()
	r.timed(layerRun, t)
	if err != nil {
		return out, err
	}
	t = time.Now()
	defer r.timed(layerVerify, t)
	st := m.Stats()
	r.sim.addStats(st)
	out.cycles = st.Cycles
	for th := 0; th < p.NumThreads(); th++ {
		out.outputs = append(out.outputs, m.Output(th))
	}
	d := newDigester()
	d.stats(st)
	d.outputs(m, p.NumThreads())
	if c.threshold > 0 {
		out.fp = p.Fingerprint()
		if base.outputs == nil {
			return out, fmt.Errorf("no baseline outputs to compare against")
		}
		if !reflect.DeepEqual(out.outputs, base.outputs) {
			return out, fmt.Errorf("committed outputs %v differ from the baseline's %v", out.outputs, base.outputs)
		}
	}
	out.digest = d.sum()
	return out, nil
}

// ---- compile-matrix --------------------------------------------------------

type matrixCell struct {
	prog      int
	level     compile.Level
	threshold int
}

type matrix struct {
	benches []workload.Benchmark
	srcs    []*prog.Program
	cells   []matrixCell
	order   []int
	ref     map[int][32]byte // each cell's output fingerprint in the first round
}

func setupMatrix(seed uint64, small bool, s *setupRec) (*prepared, error) {
	benches, thresholds := workload.All(), figures.Fig8Thresholds
	if small {
		benches, thresholds = benches[:2], []int{64, compile.DefaultThreshold}
	}
	mx := &matrix{benches: benches, srcs: buildSources(benches, s), ref: map[int][32]byte{}}
	for i := range benches {
		for _, l := range compile.Levels {
			for _, th := range thresholds {
				mx.cells = append(mx.cells, matrixCell{i, l, th})
			}
		}
	}
	mx.order = seededOrder(len(mx.cells), seed)
	return &prepared{shapes: 1, round: func(r *round, _ int) { mx.round(r) }}, nil
}

func (mx *matrix) round(r *round) {
	fps := make([][32]byte, len(mx.cells))
	for _, ci := range mx.order {
		c := mx.cells[ci]
		r.beginOp()
		fp, err := mx.compile(r, ci, c)
		fps[ci] = fp
		r.endOp(fmt.Sprintf("%s %s@%d", mx.benches[c.prog].Name, c.level, c.threshold), err)
	}
	r.compileDigest = combine(fps)
}

// compile compiles one cell cold. Its output fingerprint must be the one the
// same cell produced in the run's first round.
func (mx *matrix) compile(r *round, ci int, c matrixCell) ([32]byte, error) {
	t := time.Now()
	res, err := compile.Compile(mx.srcs[c.prog], compile.OptionsForLevel(c.level, c.threshold))
	r.timed(layerCompile, t)
	if err != nil {
		return [32]byte{}, err
	}
	t = time.Now()
	defer r.timed(layerVerify, t)
	r.sim.comp.add(res.Stats)
	fp := res.Program.Fingerprint()
	if ref, ok := mx.ref[ci]; !ok {
		mx.ref[ci] = fp
	} else if ref != fp {
		return fp, fmt.Errorf("output fingerprint changed between rounds")
	}
	return fp, nil
}

// ---- crash-audit -----------------------------------------------------------

// crashShapes is the number of sub-pools the crash points are dealt into;
// round i runs sub-pool i % crashShapes, so every sub-pool has the same mix
// of targets.
const crashShapes = 4

// stepBudget bounds every crash-audit machine at this many scheduler steps
// per golden retired instruction, so a resume that never finishes fails its
// op within a bounded time. A step retires at least one instruction except
// while a core spins, so this is at least about 50x the golden run's steps.
const stepBudget = 50

// knownHangs maps a contention target's core count (fault.Target.Cores;
// zero for every other target) to the crash-point window, inclusive, where
// resuming after recovery never finishes; see README.md. No crash point is
// drawn inside it.
var knownHangs = map[int][2]uint64{4: {116, 127}, 8: {248, 271}}

type crashTarget struct {
	name   string
	prog   *prog.Program
	cfg    machine.Config
	golden *recovery.Golden
	// check is the contention workloads' invariant check: their outputs
	// depend on the interleaving, so they are not compared with golden.
	check func(scale int, snap map[uint64]uint64) error
}

type crashPoint struct {
	target int
	at     uint64
}

type crashAudit struct {
	targets []crashTarget
	pools   [crashShapes][]crashPoint
}

// crashGroups lists the point pool: targets in campaign geometry and the
// number of crash points drawn for each. The progen programs are the first
// 26 of the fixed corpus the soak campaigns run; -seed picks the crash
// points, not the programs (README.md lists seed-derived programs that do
// not compile).
func crashGroups(small bool) []struct {
	targets []fault.Target
	points  int
} {
	corpus := fault.CorpusTargets(26, 64)
	var paper []fault.Target
	for _, n := range []string{"genome", "vacation", "water-nsquared", "radix"} {
		paper = append(paper, fault.Target{Bench: n, Threshold: 64})
	}
	contention := fault.ContentionTargets(1, 64)
	if small {
		corpus, contention, paper = corpus[:2], contention[3:4], paper[:1]
	}
	n := func(full int) int {
		if small {
			return crashShapes
		}
		return full
	}
	return []struct {
		targets []fault.Target
		points  int
	}{{corpus, n(12)}, {contention, n(72)}, {paper, n(12)}}
}

func setupCrashAudit(seed uint64, small bool, s *setupRec) (*prepared, error) {
	ca := &crashAudit{}
	pr := &prepared{shapes: crashShapes, round: ca.round}
	draw := rng{seed}
	for _, g := range crashGroups(small) {
		for _, tg := range g.targets {
			ct, err := newCrashTarget(tg, s)
			if err != nil {
				return nil, err
			}
			ti := len(ca.targets)
			ca.targets = append(ca.targets, ct)
			pr.compileFP = append(pr.compileFP, ct.prog.Fingerprint())
			hang, hangs := knownHangs[tg.Cores]
			for j := 0; j < g.points; {
				at := 1 + draw.next()%(ct.golden.Instret-1)
				if hangs && at >= hang[0] && at <= hang[1] {
					pr.skipped = append(pr.skipped, fmt.Sprintf("%s@%d", ct.name, at))
					continue
				}
				ca.pools[j%crashShapes] = append(ca.pools[j%crashShapes], crashPoint{ti, at})
				j++
			}
		}
	}
	for k := range ca.pools {
		shuffle(&draw, ca.pools[k])
	}
	return pr, nil
}

// newCrashTarget compiles a campaign target, captures its golden run and
// bounds its machines' steps.
func newCrashTarget(tg fault.Target, s *setupRec) (crashTarget, error) {
	t := time.Now()
	pg, cfg, err := tg.Build()
	s.timed(setupTarget, t)
	if err != nil {
		return crashTarget{}, err
	}
	t = time.Now()
	gold, err := recovery.RunGolden(pg, cfg)
	s.timed(setupGolden, t)
	if err != nil {
		return crashTarget{}, fmt.Errorf("%s: golden: %w", tg.Name(), err)
	}
	if gold.Instret < 2 {
		return crashTarget{}, fmt.Errorf("%s: golden run retires %d instructions, no crash point", tg.Name(), gold.Instret)
	}
	cfg.MaxSteps = stepBudget * gold.Instret
	ct := crashTarget{name: tg.Name(), prog: pg, cfg: cfg, golden: gold}
	if tg.Bench != "" {
		b, err := workload.ByName(tg.Bench)
		if err != nil {
			return crashTarget{}, err
		}
		ct.check = b.Check
	}
	return ct, nil
}

func (ca *crashAudit) round(r *round, shape int) {
	pool := ca.pools[shape]
	digests := make([][32]byte, len(pool))
	for i, p := range pool {
		r.beginOp()
		d, err := ca.point(r, p)
		r.endOp(fmt.Sprintf("%s@%d", ca.targets[p.target].name, p.at), err)
		digests[i] = d
	}
	r.simDigest = combine(digests)
}

// point runs one crash point under the audit tap: run to the crash, take
// the image, recover, check detectability, resume to completion, and check
// the final state against golden (or the workload's invariants) and the
// auditor's verdict.
func (ca *crashAudit) point(r *round, p crashPoint) ([32]byte, error) {
	ct := &ca.targets[p.target]
	d := newDigester()
	t := time.Now()
	m, err := machine.New(ct.prog, ct.cfg)
	r.timed(layerNew, t)
	if err != nil {
		return d.sum(), err
	}
	t = time.Now()
	flight := audit.NewFlightRecorder(audit.DefaultRecorderCap)
	aud := audit.NewAuditor(m.AuditOptions())
	aud.AttachRecorder(flight)
	tap := r.wrapTap(audit.Tee(flight, aud))
	m.SetTap(tap)
	r.timed(layerAudit, t)

	t = time.Now()
	err = m.RunUntil(p.at)
	r.timed(layerRun, t)
	if err != nil {
		return d.sum(), fmt.Errorf("run to crash: %w", err)
	}
	if m.Done() {
		return d.sum(), fmt.Errorf("program finished before crash point %d (golden retires %d)", p.at, ct.golden.Instret)
	}
	pre := m.Stats()
	t = time.Now()
	img, err := m.Crash()
	r.timed(layerCrash, t)
	if err != nil {
		return d.sum(), fmt.Errorf("crash image: %w", err)
	}
	t = time.Now()
	rm, rep, err := machine.RecoverInstrumented(img, nil, tap)
	r.timed(layerRecover, t)
	if err != nil {
		return d.sum(), fmt.Errorf("recover: %w", err)
	}
	t = time.Now()
	err = checkRecovered(rm, rep)
	r.timed(layerVerify, t)
	if err != nil {
		return d.sum(), err
	}
	t = time.Now()
	err = rm.Run()
	r.timed(layerRun, t)
	if err != nil {
		return d.sum(), fmt.Errorf("resume: %w", err)
	}

	t = time.Now()
	defer r.timed(layerVerify, t)
	post := rm.Stats()
	r.sim.addStats(pre)
	r.sim.addStats(post)
	r.sim.addReport(rep)
	r.sim.events += flight.Total()
	r.sim.violations += aud.ViolationCount()
	d.stats(pre)
	d.stats(post)
	d.u64(uint64(rep.RegionsRedone), uint64(rep.EntriesRedone), uint64(rep.EntriesUndone),
		uint64(rep.UndoneApplied), uint64(rep.SlicesExecuted), uint64(rep.CoresResumed), uint64(rep.CoresHalted))
	fd := flight.Digest()
	d.h.Write(fd[:])
	d.outputs(rm, ct.prog.NumThreads())
	if err := aud.Err(); err != nil {
		return d.sum(), fmt.Errorf("audit: %w", err)
	}
	return d.sum(), ct.checkFinal(rm)
}

// checkRecovered checks what recovery itself promises: no conflicting
// cross-core undo and every sync descriptor backed by NVM.
func checkRecovered(m *machine.Machine, rep *machine.RecoveryReport) error {
	if rep.ConflictingUndo != 0 {
		return fmt.Errorf("%d conflicting cross-core undo entries", rep.ConflictingUndo)
	}
	if i := m.VerifyDetectable(); i >= 0 {
		return fmt.Errorf("core %d: sync descriptor not backed by NVM", i)
	}
	return nil
}

// checkFinal compares a resumed run's final state with the golden run: the
// outputs and memory, or for contention workloads their invariants plus
// exactly-once output counts.
func (ct *crashTarget) checkFinal(m *machine.Machine) error {
	g := ct.golden
	if ct.check != nil {
		if err := ct.check(1, m.MemSnapshot()); err != nil {
			return err
		}
		for t := range g.Outputs {
			if got, want := len(m.Output(t)), len(g.Outputs[t]); got != want {
				return fmt.Errorf("thread %d emitted %d values, golden %d", t, got, want)
			}
		}
		return nil
	}
	for t := range g.Outputs {
		if !reflect.DeepEqual(m.Output(t), g.Outputs[t]) {
			return fmt.Errorf("thread %d output %v, golden %v", t, m.Output(t), g.Outputs[t])
		}
	}
	snap := m.MemSnapshot()
	for a, v := range g.Mem {
		if snap[a] != v {
			return fmt.Errorf("mem[%#x] = %d, golden %d", a, snap[a], v)
		}
	}
	return nil
}
