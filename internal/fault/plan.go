// Package fault is the deterministic, seed-replayable hardware-fault
// injection subsystem (DESIGN.md §4f): JSON fault plans describing torn NVM
// line writes at power failure, nested crashes during §5.4 recovery, and
// transient NVM write errors in the phase-2 drain engine; a plan executor
// that hands a plan's faults to the crash driver (recovery.Run), which
// drives the machine package's fault hooks under the online Fig. 7 auditor;
// and a campaign engine that sweeps seeded random plans over the
// progen corpus and the paper benchmarks, shrinking every failure to a
// minimal reproducible plan.
//
// Everything is deterministic: a plan's JSON plus the target identity fully
// reproduce a failure, and shrinking re-runs the executor, so the minimal
// plan it reports is stable.
package fault

import (
	"encoding/json"
	"fmt"
	"os"

	"capri/internal/compile"
	"capri/internal/machine"
	"capri/internal/prog"
	"capri/internal/progen"
	"capri/internal/workload"
)

// PlanSchema identifies the fault-plan JSON format.
const PlanSchema = "capri/fault-plan/v1"

// Kind classifies one injected fault.
type Kind string

// Fault kinds.
const (
	// KindTornWriteback tears a recent dirty-line writeback at the crash:
	// of its applied word writes (ascending address), only the first Keep
	// persist. Pick selects the journaled line (0 = newest).
	KindTornWriteback Kind = "torn-writeback"
	// KindTornDrain tears core Core's oldest in-flight phase-2 drain at the
	// crash: the first Keep valid redo entries were already pushed to NVM.
	KindTornDrain Kind = "torn-drain"
	// KindRecoveryCrash injects a nested power failure after Step
	// persistent steps of the recovery protocol (redo writes, marker folds,
	// undo applications). Multiple such faults interrupt successive
	// recovery attempts in plan order.
	KindRecoveryCrash Kind = "recovery-crash"
	// KindDrainError makes core Core's phase-2 drain completion fail Fails
	// consecutive times with a transient NVM write error (Region restricts
	// to one region; 0 matches any).
	KindDrainError Kind = "drain-error"
)

// Fault is one injected fault. Field meaning depends on Kind (see the kind
// constants); unused fields are zero and omitted from JSON.
type Fault struct {
	Kind   Kind   `json:"kind"`
	Core   int    `json:"core,omitempty"`
	Pick   int    `json:"pick,omitempty"`
	Keep   int    `json:"keep,omitempty"`
	Step   uint64 `json:"step,omitempty"`
	Region uint64 `json:"region,omitempty"`
	Fails  int    `json:"fails,omitempty"`
}

// String renders the fault as one compact token.
func (f Fault) String() string {
	switch f.Kind {
	case KindTornWriteback:
		return fmt.Sprintf("torn-writeback(pick=%d,keep=%d)", f.Pick, f.Keep)
	case KindTornDrain:
		return fmt.Sprintf("torn-drain(core=%d,keep=%d)", f.Core, f.Keep)
	case KindRecoveryCrash:
		return fmt.Sprintf("recovery-crash(step=%d)", f.Step)
	case KindDrainError:
		if f.Region != 0 {
			return fmt.Sprintf("drain-error(core=%d,region=%d,fails=%d)", f.Core, f.Region, f.Fails)
		}
		return fmt.Sprintf("drain-error(core=%d,fails=%d)", f.Core, f.Fails)
	}
	return string(f.Kind)
}

// Target identifies the workload a plan runs against: a named paper
// benchmark, a synthetic campaign workload (see synth.go), or a progen
// corpus program (seed + shape index into CorpusShapes).
type Target struct {
	Bench       string `json:"bench,omitempty"`
	Scale       int    `json:"scale,omitempty"`
	Synth       string `json:"synth,omitempty"`
	ProgenSeed  uint64 `json:"progen_seed,omitempty"`
	ProgenShape int    `json:"progen_shape,omitempty"`
	Threshold   int    `json:"threshold,omitempty"`
	// Cores pins the machine geometry (0: the default, bumped to the
	// program's thread count). Recorded in the plan so a multi-core
	// campaign's plans are self-describing and replayable byte-for-byte.
	Cores int `json:"cores,omitempty"`
}

// Name returns a stable human-readable target identity.
func (t Target) Name() string {
	switch {
	case t.Bench != "":
		return t.Bench
	case t.Synth != "":
		return t.Synth
	}
	return fmt.Sprintf("progen-%d-s%d", t.ProgenSeed, t.ProgenShape)
}

// CorpusShapes are the four progen generation shapes of the repository's
// 104-program corpus — the same table the differential and audit sweeps
// cycle through, referenced from plans by index so a plan's JSON alone
// reproduces the program.
var CorpusShapes = []progen.Config{
	{Funcs: 3, MaxDepth: 3, MaxStmts: 5, MaxLoopTrip: 6, Threads: 1},
	{Funcs: 2, MaxDepth: 2, MaxStmts: 4, MaxLoopTrip: 4, Threads: 2},
	{Funcs: 4, MaxDepth: 3, MaxStmts: 6, MaxLoopTrip: 5, Threads: 1},
	{Funcs: 2, MaxDepth: 2, MaxStmts: 4, MaxLoopTrip: 4, Threads: 2, Barriers: true},
}

// Build compiles the target and returns the program plus the machine
// configuration the campaign runs it under. The caches are deliberately
// tiny (progen targets get the Fig. 7 tests' near-degenerate geometry):
// dirty lines must actually reach the memory controller for torn-writeback
// faults to have something to tear and for the recovery undo path to carry
// weight — at the sweeps' geometries no workload ever evicts a dirty line.
func (t Target) Build() (*prog.Program, machine.Config, error) {
	threshold := t.Threshold
	if threshold <= 0 {
		threshold = 64
	}
	var src *prog.Program
	cfg := machine.DefaultConfig()
	cfg.Threshold = threshold
	switch {
	case t.Bench != "":
		b, err := workload.ByName(t.Bench)
		if err != nil {
			return nil, cfg, err
		}
		scale := t.Scale
		if scale <= 0 {
			scale = 1
		}
		src = b.Build(scale)
		cfg.L1Size = 4 << 10
		cfg.L2Size = 64 << 10
		cfg.DRAMSize = 1 << 20
	case t.Synth != "":
		var err error
		src, err = buildSynth(t.Synth)
		if err != nil {
			return nil, cfg, err
		}
		cfg.L1Size = 256
		cfg.L1Ways = 1
		cfg.L2Size = 512
		cfg.L2Ways = 1
		cfg.DRAMSize = 1 << 14
	default:
		shape := CorpusShapes[((t.ProgenShape%len(CorpusShapes))+len(CorpusShapes))%len(CorpusShapes)]
		src = progen.Generate(t.ProgenSeed, shape)
		cfg.L1Size = 256
		cfg.L1Ways = 1
		cfg.L2Size = 512
		cfg.L2Ways = 1
		cfg.DRAMSize = 1 << 14
	}
	if t.Cores > 0 {
		cfg.Cores = t.Cores
	}
	if n := src.NumThreads(); n > cfg.Cores {
		cfg.Cores = n
	}
	res, err := compile.Compile(src, compile.OptionsForLevel(compile.LevelLICM, threshold))
	if err != nil {
		return nil, cfg, fmt.Errorf("%s: compile: %w", t.Name(), err)
	}
	return res.Program, cfg, nil
}

// Plan is one seeded fault plan: the target, the primary crash point
// (retired-instruction count), and the faults to inject. A plan is the unit
// of reproduction — `capricrash -plan failure.json` replays it exactly.
type Plan struct {
	Schema  string  `json:"schema"`
	Target  Target  `json:"target"`
	Seed    uint64  `json:"seed,omitempty"` // generator seed (provenance only)
	CrashAt uint64  `json:"crash_at"`
	Faults  []Fault `json:"faults"`
}

// Summary renders the plan as one line.
func (p Plan) Summary() string {
	s := fmt.Sprintf("%s crash@%d", p.Target.Name(), p.CrashAt)
	for _, f := range p.Faults {
		s += " " + f.String()
	}
	return s
}

// WriteFile serializes the plan as indented JSON ("-" writes to stdout).
func (p Plan) WriteFile(path string) error {
	b, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Bounds DecodePlan enforces on a plan's target. A plan is untrusted input,
// and its target sizes the compile and the machine it replays on: a radix
// plan at scale 10^9 runs for minutes. Every bound is far above what the
// campaigns and tests use (scale 1 or 2, thresholds up to 1024, 8 cores).
const (
	maxPlanScale     = 16
	maxPlanThreshold = 1 << 16
)

// ReadPlan loads a fault plan file (see DecodePlan).
func ReadPlan(path string) (Plan, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Plan{}, err
	}
	p, err := DecodePlan(b)
	if err != nil {
		return Plan{}, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// DecodePlan parses a fault plan's JSON. It returns an error, or a plan
// with schema PlanSchema, known fault kinds, and a target whose scale is in
// [0, 16], threshold in [0, 65536] and core count in [0, machine.MaxCores]
// (0 selects each one's default).
func DecodePlan(b []byte) (Plan, error) {
	var p Plan
	if err := json.Unmarshal(b, &p); err != nil {
		return Plan{}, err
	}
	if p.Schema != PlanSchema {
		return Plan{}, fmt.Errorf("schema %q, want %q", p.Schema, PlanSchema)
	}
	t := p.Target
	switch {
	case t.Scale < 0 || t.Scale > maxPlanScale:
		return Plan{}, fmt.Errorf("target scale %d outside [0, %d]", t.Scale, maxPlanScale)
	case t.Threshold < 0 || t.Threshold > maxPlanThreshold:
		return Plan{}, fmt.Errorf("target threshold %d outside [0, %d]", t.Threshold, maxPlanThreshold)
	case t.Cores < 0 || t.Cores > machine.MaxCores:
		return Plan{}, fmt.Errorf("target cores %d outside [0, %d]", t.Cores, machine.MaxCores)
	}
	for _, f := range p.Faults {
		switch f.Kind {
		case KindTornWriteback, KindTornDrain, KindRecoveryCrash, KindDrainError:
		default:
			return Plan{}, fmt.Errorf("unknown fault kind %q", f.Kind)
		}
	}
	return p, nil
}

// rng is the splitmix64 PRNG (self-contained so plan generation is
// reproducible independent of the standard library's generator).
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int {
	if n <= 1 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// GeneratePlan derives a random fault plan from a seed: a crash point inside
// the golden run and 1..maxFaults faults with kind-appropriate random
// parameters. Drain-error failure counts stay below the machine's default
// retry budget so exhaustion (a separately tested degradation) is opt-in,
// not a random campaign outcome.
func GeneratePlan(seed uint64, target Target, instret uint64, maxFaults, threads int) Plan {
	r := rng{s: seed}
	p := Plan{Schema: PlanSchema, Target: target, Seed: seed, CrashAt: 1}
	if instret > 2 {
		p.CrashAt = 1 + r.next()%(instret-1)
	}
	if maxFaults < 1 {
		maxFaults = 1
	}
	if threads < 1 {
		threads = 1
	}
	n := 1 + r.intn(maxFaults)
	for i := 0; i < n; i++ {
		switch r.next() % 4 {
		case 0:
			// Small Pick values: journals rarely hold more than a few lines,
			// and a Pick past the journal end is a vacuous no-op tear.
			p.Faults = append(p.Faults, Fault{
				Kind: KindTornWriteback, Pick: r.intn(4), Keep: r.intn(4),
			})
		case 1:
			p.Faults = append(p.Faults, Fault{
				Kind: KindTornDrain, Core: r.intn(threads), Keep: 1 + r.intn(8),
			})
		case 2:
			p.Faults = append(p.Faults, Fault{
				Kind: KindRecoveryCrash, Step: 1 + r.next()%64,
			})
		case 3:
			p.Faults = append(p.Faults, Fault{
				Kind: KindDrainError, Core: r.intn(threads), Fails: 1 + r.intn(4),
			})
		}
	}
	return p
}
