// Package recovery provides the crash-consistency validation harness around
// the machine's §5.4 recovery protocol: golden-state capture, the one crash
// driver (Run) every crashed run goes through, crash-point sweeps, and the
// whole-system recovery invariants of DESIGN.md expressed as checkable
// predicates. The protocol itself lives in the machine package
// (machine.Recover); this package is how the repository *proves* it.
package recovery

import (
	"errors"
	"fmt"
	"reflect"

	"capri/internal/audit"
	"capri/internal/compile"
	"capri/internal/machine"
	"capri/internal/prog"
)

// Golden captures the reference outcome of a crash-free run.
type Golden struct {
	Outputs [][]uint64
	Mem     map[uint64]uint64
	Instret uint64
	Cycles  uint64
	// Check, when set, replaces the word-for-word output and memory
	// comparison with the workload's own invariants over the final memory
	// image, plus exactly-once I/O (every thread emits as many values as in
	// the golden run). Interleaving-dependent workloads (the contention
	// suite) set it: the strict pre-crash schedule and the re-interleaved
	// resume legally diverge from golden word for word.
	Check func(map[uint64]uint64) error
}

// RunGolden executes the compiled program to completion and captures its
// final state.
func RunGolden(p *prog.Program, cfg machine.Config) (*Golden, error) {
	m, err := machine.New(p, cfg)
	if err != nil {
		return nil, err
	}
	if err := m.Run(); err != nil {
		return nil, err
	}
	g := &Golden{
		Mem:     m.MemSnapshot(),
		Instret: m.Instret(),
		Cycles:  m.Cycles(),
	}
	for t := 0; t < p.NumThreads(); t++ {
		g.Outputs = append(g.Outputs, m.Output(t))
	}
	return g, nil
}

// Faults is the hardware-fault side of one crashed run. The zero value is a
// clean power failure on an ideal NVM device.
type Faults struct {
	// Tears are the line writes torn at the primary power failure.
	Tears []machine.Tear
	// Nested interrupts successive recovery attempts: attempt i loses power
	// again after Nested[i] persistent protocol steps, and the next attempt
	// starts from the image it left behind.
	Nested []uint64
	// Device, when set, is the faulty-device model armed on the pre-crash
	// machine and again on the resumed one: drain state is persistent
	// hardware, so a drain-error budget spans both. Arming it also journals
	// line writes for Tears and turns off the §5.3.2 writeback-scan elision,
	// which is unsound on a device that can tear; nil keeps the machine as
	// configured.
	Device *machine.FaultConfig
}

// Outcome is the result of one crashed run. Err is nil when the run was
// legal: the auditor saw no Fig. 7 violation, recovery was detectable and
// order-independent, and the final state passed the golden verdict (or the
// run degraded to a structured drain-exhaustion stop, or finished before the
// crash point — vacuous, but still checked against golden).
type Outcome struct {
	Crashed       bool // the primary power failure fired
	Vacuous       bool // program finished before the crash point
	Exhausted     bool // drain retry budget exhausted (expected degradation)
	Recoveries    int  // recovery attempts, including interrupted ones
	NestedCrashes int  // nested power failures injected during recovery
	DrainRetries  uint64
	EventsAudited uint64
	// Report is the completed recovery's report; nil if none completed.
	Report *machine.RecoveryReport
	Err    error

	// Provenance of the run, for record writing (capricrash -record-out).
	Flight  *audit.FlightRecorder
	Auditor *audit.Auditor
	Machine *machine.Machine // final machine; nil if the run died early
}

// Run is the one crash driver: it runs a fresh machine to crashAt under the
// online Fig. 7 auditor, injects the power failure with f's torn writes,
// recovers (interrupted by each of f.Nested in order, re-recovering from the
// nested image every time), checks detectability and recovery-order
// commutativity, resumes, and renders the golden verdict. The auditor
// observes the whole run, recovery replay included. Execution is fully
// deterministic: the same arguments always produce the same outcome.
func Run(p *prog.Program, cfg machine.Config, g *Golden, crashAt uint64, f Faults) Outcome {
	out := Outcome{}
	m, err := machine.New(p, cfg)
	if err != nil {
		out.Err = err
		return out
	}
	// A bounded flight recorder rides along so a violation carries its
	// per-line event chain without retaining the whole run.
	flight := audit.NewFlightRecorder(audit.DefaultRecorderCap)
	aud := audit.NewAuditor(m.AuditOptions())
	aud.AttachRecorder(flight)
	tap := audit.Tee(flight, aud)
	m.SetTap(tap)
	if f.Device != nil {
		m.ArmFaults(*f.Device)
	}
	out.Flight, out.Auditor = flight, aud

	finish := func(fin *machine.Machine, err error) Outcome {
		out.Machine, out.Err = fin, err
		out.EventsAudited = aud.EventsAudited()
		if fin != nil {
			out.DrainRetries += fin.Stats().DrainRetries
		}
		if aerr := aud.Err(); aerr != nil && out.Err == nil {
			out.Err = fmt.Errorf("audit: %w", aerr)
		}
		return out
	}

	var xerr *machine.DrainExhaustedError
	if err := m.RunUntil(crashAt); err != nil {
		// A drain retry budget that runs out degrades the machine to a
		// structured hard stop: expected, not a failure, but the event
		// stream up to the stop must still be legal.
		out.Exhausted = errors.As(err, &xerr)
		if out.Exhausted {
			return finish(m, nil)
		}
		return finish(m, fmt.Errorf("run to crash@%d: %w", crashAt, err))
	}
	if m.Done() {
		out.Vacuous = true
		return finish(m, verdict(m, g))
	}

	img, err := m.CrashTorn(f.Tears)
	if err != nil {
		return finish(m, fmt.Errorf("crash@%d: image: %w", crashAt, err))
	}
	out.Crashed = true
	out.DrainRetries += m.Stats().DrainRetries

	// Recovery, interrupted by each nested fault in order; a step count of 0
	// recovers to completion. img ends as the image the completed recovery
	// ran from, for the commutativity check below.
	var r *machine.Machine
	for i := 0; r == nil; i++ {
		var step uint64
		if i < len(f.Nested) {
			step = f.Nested[i]
		}
		m2, rep, nested, err := machine.RecoverInterrupted(img, tap, step)
		if err != nil {
			return finish(nil, fmt.Errorf("recover (attempt %d): %w", i+1, err))
		}
		out.Recoveries++
		if nested != nil {
			out.NestedCrashes++
			img = nested
			continue
		}
		r, out.Report = m2, rep
	}
	// Invariant 7 (DESIGN.md): DRF programs never produce conflicting
	// cross-core undo entries.
	if n := out.Report.ConflictingUndo; n != 0 {
		return finish(r, fmt.Errorf("%d conflicting cross-core undo entries", n))
	}

	// Detectability: every per-core sync-op descriptor in the recovered
	// records must be backed by a persisted NVM version at least as new —
	// the op is provably complete, never half-present.
	if i := r.VerifyDetectable(); i >= 0 {
		rec := r.Records()[i]
		return finish(r, fmt.Errorf("core %d: sync descriptor (op %d addr %#x seq %d) not backed by NVM: detectability broken",
			i, rec.Sync.Op, rec.Sync.Addr, rec.Sync.Seq))
	}

	// Order commutativity: recovering the same image with the core order
	// reversed must converge to the byte-identical persistent state. (The
	// auditor checks the order the machine actually used; this checks the
	// orders it didn't.)
	if len(img.Streams) > 1 {
		rev := make([]int, len(img.Streams))
		for i := range rev {
			rev[i] = len(rev) - 1 - i
		}
		r2, _, err := machine.RecoverInstrumented(img, rev, nil)
		if err != nil {
			return finish(r, fmt.Errorf("reversed-order recover: %w", err))
		}
		if !reflect.DeepEqual(r.NVMEntries(), r2.NVMEntries()) {
			return finish(r, errors.New("recovery does not commute: reversed core order yields a different NVM image"))
		}
		if !reflect.DeepEqual(r.Records(), r2.Records()) {
			return finish(r, errors.New("recovery does not commute: reversed core order yields different recovery records"))
		}
	}

	if f.Device != nil {
		r.ArmFaults(*f.Device)
	}
	if err := r.Run(); err != nil {
		out.Exhausted = errors.As(err, &xerr)
		if out.Exhausted {
			return finish(r, nil)
		}
		return finish(r, fmt.Errorf("resume: %w", err))
	}
	return finish(r, verdict(r, g))
}

// verdict checks a finished run's final state against golden: outputs and
// the whole memory image, or golden's Check plus exactly-once emit counts.
func verdict(m *machine.Machine, g *Golden) error {
	if g.Check != nil {
		if err := g.Check(m.MemSnapshot()); err != nil {
			return err
		}
		for t := range g.Outputs {
			if got := len(m.Output(t)); got != len(g.Outputs[t]) {
				return fmt.Errorf("thread %d emitted %d values, golden %d", t, got, len(g.Outputs[t]))
			}
		}
		return nil
	}
	for t := range g.Outputs {
		if !reflect.DeepEqual(m.Output(t), g.Outputs[t]) {
			return fmt.Errorf("thread %d output %v, golden %v", t, m.Output(t), g.Outputs[t])
		}
	}
	got := m.MemSnapshot()
	if a, differ := firstDiff(got, g.Mem); differ {
		gv, gok := got[a]
		wv, wok := g.Mem[a]
		return fmt.Errorf("mem[%#x] = %d (present %v), golden %d (present %v); %d vs %d words",
			a, gv, gok, wv, wok, len(got), len(g.Mem))
	}
	return nil
}

// firstDiff compares two whole memory images and returns the lowest address
// at which they differ, counting a word present in only one of them; differ
// is false when the images are equal.
func firstDiff(got, want map[uint64]uint64) (addr uint64, differ bool) {
	note := func(a uint64) {
		if !differ || a < addr {
			addr, differ = a, true
		}
	}
	for a, v := range got {
		if w, ok := want[a]; !ok || w != v {
			note(a)
		}
	}
	for a := range want {
		if _, ok := got[a]; !ok {
			note(a)
		}
	}
	return addr, differ
}

// SweepResult aggregates a crash-injection sweep.
type SweepResult struct {
	Points         int // crash points injected
	RegionsRedone  int
	EntriesUndone  int
	UndoneApplied  int
	SlicesExecuted int
	EventsAudited  uint64 // provenance events the auditor checked
}

// Sweep runs Run with clean faults at `points` evenly spaced instruction
// counts. The first failed run is returned as an error naming its crash
// point.
func Sweep(p *prog.Program, cfg machine.Config, g *Golden, points int) (*SweepResult, error) {
	res := &SweepResult{}
	step := g.Instret / uint64(max(points, 1))
	if step == 0 {
		step = 1
	}
	for crashAt := step; crashAt < g.Instret; crashAt += step {
		o := Run(p, cfg, g, crashAt, Faults{})
		if o.Err != nil {
			return res, fmt.Errorf("crash@%d: %w", crashAt, o.Err)
		}
		if o.Report == nil {
			continue // program finished before the crash point
		}
		res.Points++
		res.RegionsRedone += o.Report.RegionsRedone
		res.EntriesUndone += o.Report.EntriesUndone
		res.UndoneApplied += o.Report.UndoneApplied
		res.SlicesExecuted += o.Report.SlicesExecuted
		res.EventsAudited += o.EventsAudited
	}
	return res, nil
}

// ValidateProgram compiles a source program at the given options, runs the
// golden execution, and sweeps crash points — the one-call form used by the
// property-based tests and the capricrash command.
func ValidateProgram(src *prog.Program, opts compile.Options, cfg machine.Config, points int) (*SweepResult, error) {
	res, err := compile.Compile(src, opts)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	if cfg.Capri {
		cfg.Threshold = opts.Threshold
	}
	g, err := RunGolden(res.Program, cfg)
	if err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	return Sweep(res.Program, cfg, g, points)
}
