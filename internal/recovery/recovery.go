// Package recovery provides the crash-consistency validation harness around
// the machine's §5.4 recovery protocol: golden-state capture, crash-point
// sweeps, and the whole-system recovery invariants of DESIGN.md expressed as
// checkable predicates. The protocol itself lives in the machine package
// (machine.Recover); this package is how the repository *proves* it.
package recovery

import (
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

// SweepResult aggregates a crash-injection sweep.
type SweepResult struct {
	Points         int // crash points injected
	RegionsRedone  int
	EntriesUndone  int
	UndoneApplied  int
	SlicesExecuted int
	EventsAudited  uint64 // provenance events checked (audited sweeps only)
}

// Sweep crashes fresh runs of the program at `points` evenly spaced
// instruction counts, recovers each, resumes, and verifies the recovered
// outcome against the golden state. The first violated invariant is
// returned as an error naming the crash point.
func Sweep(p *prog.Program, cfg machine.Config, g *Golden, points int) (*SweepResult, error) {
	return sweep(p, cfg, g, points, false)
}

// SweepAudited is Sweep with the online Fig. 7 auditor attached to every
// crashed run: a fresh auditor observes each run from its first store through
// crash, recovery replay, and resumed execution, and any invariant violation
// fails the sweep with the offending per-line event chain.
func SweepAudited(p *prog.Program, cfg machine.Config, g *Golden, points int) (*SweepResult, error) {
	return sweep(p, cfg, g, points, true)
}

func sweep(p *prog.Program, cfg machine.Config, g *Golden, points int, audited bool) (*SweepResult, error) {
	res := &SweepResult{}
	if points < 1 {
		points = 1
	}
	step := g.Instret / uint64(points)
	if step == 0 {
		step = 1
	}
	for crashAt := step; crashAt < g.Instret; crashAt += step {
		rep, aud, err := crashOnce(p, cfg, g, crashAt, audited)
		if err != nil {
			return res, err
		}
		if rep == nil {
			continue // program finished before the crash point
		}
		res.Points++
		res.RegionsRedone += rep.RegionsRedone
		res.EntriesUndone += rep.EntriesUndone
		res.UndoneApplied += rep.UndoneApplied
		res.SlicesExecuted += rep.SlicesExecuted
		if aud != nil {
			res.EventsAudited += aud.EventsAudited()
		}
	}
	return res, nil
}

// CrashOnce crashes one run at the given instruction count, recovers,
// resumes, and checks every recovery invariant. A nil report (with nil
// error) means the program finished before the crash point.
func CrashOnce(p *prog.Program, cfg machine.Config, g *Golden, crashAt uint64) (*machine.RecoveryReport, error) {
	rep, _, err := crashOnce(p, cfg, g, crashAt, false)
	return rep, err
}

// CrashOnceAudited is CrashOnce under the online auditor; the returned
// auditor exposes the event count and any violations (also folded into err).
func CrashOnceAudited(p *prog.Program, cfg machine.Config, g *Golden, crashAt uint64) (*machine.RecoveryReport, *audit.Auditor, error) {
	return crashOnce(p, cfg, g, crashAt, true)
}

func crashOnce(p *prog.Program, cfg machine.Config, g *Golden, crashAt uint64, audited bool) (*machine.RecoveryReport, *audit.Auditor, error) {
	m, err := machine.New(p, cfg)
	if err != nil {
		return nil, nil, err
	}
	var (
		aud *audit.Auditor
		tap audit.Sink
	)
	if audited && cfg.Capri {
		// A bounded flight recorder rides along so a violation carries its
		// per-line event chain without retaining the whole run.
		rec := audit.NewFlightRecorder(audit.DefaultRecorderCap)
		aud = audit.NewAuditor(m.AuditOptions())
		aud.AttachRecorder(rec)
		tap = audit.Tee(rec, aud)
		m.SetTap(tap)
	}
	if err := m.RunUntil(crashAt); err != nil {
		return nil, aud, fmt.Errorf("crash@%d: run: %w", crashAt, err)
	}
	if m.Done() {
		return nil, aud, nil
	}
	img, err := m.Crash()
	if err != nil {
		return nil, aud, fmt.Errorf("crash@%d: image: %w", crashAt, err)
	}
	var r *machine.Machine
	var rep *machine.RecoveryReport
	if tap != nil {
		// The auditor stays attached across the crash: it watches the
		// recovery replay itself and the resumed execution.
		r, rep, err = machine.RecoverInstrumented(img, nil, tap)
	} else {
		r, rep, err = machine.Recover(img)
	}
	if err != nil {
		return nil, aud, fmt.Errorf("crash@%d: recover: %w", crashAt, err)
	}
	// Invariant 7 (DESIGN.md): DRF programs never produce conflicting
	// cross-core undo entries.
	if rep.ConflictingUndo != 0 {
		return rep, aud, fmt.Errorf("crash@%d: %d conflicting cross-core undo entries", crashAt, rep.ConflictingUndo)
	}
	if err := r.Run(); err != nil {
		return rep, aud, fmt.Errorf("crash@%d: resume: %w", crashAt, err)
	}
	// Fig. 7 invariants: the online auditor must have seen a legal event
	// stream through crash, replay, and resumption.
	if aud != nil {
		if err := aud.Err(); err != nil {
			return rep, aud, fmt.Errorf("crash@%d: audit: %w", crashAt, err)
		}
	}
	// Invariant 2: end-to-end resumption equals the golden run.
	for t := range g.Outputs {
		if !reflect.DeepEqual(r.Output(t), g.Outputs[t]) {
			return rep, aud, fmt.Errorf("crash@%d: thread %d output %v, golden %v",
				crashAt, t, r.Output(t), g.Outputs[t])
		}
	}
	got := r.MemSnapshot()
	if a, differ := firstDiff(got, g.Mem); differ {
		gv, gok := got[a]
		wv, wok := g.Mem[a]
		return rep, aud, fmt.Errorf("crash@%d: mem[%#x] = %d (present %v), golden %d (present %v); %d vs %d words",
			crashAt, a, gv, gok, wv, wok, len(got), len(g.Mem))
	}
	return rep, aud, nil
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

// ValidateProgram compiles a source program at the given options, runs the
// golden execution, and sweeps crash points — the one-call form used by the
// property-based tests and the capricrash command.
func ValidateProgram(src *prog.Program, opts compile.Options, cfg machine.Config, points int) (*SweepResult, error) {
	return validateProgram(src, opts, cfg, points, false)
}

// ValidateProgramAudited is ValidateProgram with every crashed run observed
// by the online Fig. 7 auditor (see SweepAudited).
func ValidateProgramAudited(src *prog.Program, opts compile.Options, cfg machine.Config, points int) (*SweepResult, error) {
	return validateProgram(src, opts, cfg, points, true)
}

func validateProgram(src *prog.Program, opts compile.Options, cfg machine.Config, points int, audited bool) (*SweepResult, error) {
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
	return sweep(res.Program, cfg, g, points, audited)
}
