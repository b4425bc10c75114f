package fault

import (
	"errors"
	"fmt"
	"reflect"

	"capri/internal/audit"
	"capri/internal/machine"
	"capri/internal/prog"
	"capri/internal/recovery"
	"capri/internal/workload"
)

// Outcome is the result of executing one fault plan. Err is nil when the run
// was legal: the auditor saw no Fig. 7 violation and the final state matched
// the golden run (or the run degraded to a structured drain-exhaustion stop,
// or finished before the crash point — vacuous but still golden-checked).
type Outcome struct {
	Crashed       bool // the primary power failure fired
	Vacuous       bool // program finished before the crash point
	Exhausted     bool // drain retry budget exhausted (expected degradation)
	Recoveries    int  // recovery attempts, including interrupted ones
	NestedCrashes int  // nested power failures injected during recovery
	DrainRetries  uint64
	EventsAudited uint64
	Err           error

	// Provenance of the run, for record writing (capricrash -record-out).
	Flight  *audit.FlightRecorder
	Auditor *audit.Auditor
	Machine *machine.Machine // final machine; nil if the run died early
}

// RunPlan executes one fault plan against a compiled target under the online
// auditor: run to the crash point with drain errors armed, inject the
// primary power failure with the plan's torn writes, recover (interrupted by
// each recovery-crash fault in plan order, re-recovering from the nested
// image every time), resume, and verify the final outputs and memory against
// the golden run. Execution is fully deterministic: the same plan always
// produces the same outcome.
func RunPlan(pg *prog.Program, cfg machine.Config, g *recovery.Golden, plan Plan) Outcome {
	out := Outcome{}

	// Split the plan by fault kind.
	var tears []machine.Tear
	var recoverySteps []uint64
	type drainFault struct {
		core   int
		region uint64
		fails  int
	}
	var drains []drainFault
	for _, f := range plan.Faults {
		switch f.Kind {
		case KindTornWriteback:
			tears = append(tears, machine.Tear{Kind: machine.TearWriteback, Pick: f.Pick, Keep: f.Keep})
		case KindTornDrain:
			tears = append(tears, machine.Tear{Kind: machine.TearDrain, Pick: f.Core, Keep: f.Keep})
		case KindRecoveryCrash:
			recoverySteps = append(recoverySteps, f.Step)
		case KindDrainError:
			drains = append(drains, drainFault{core: f.Core, region: f.Region, fails: f.Fails})
		default:
			out.Err = fmt.Errorf("unknown fault kind %q", f.Kind)
			return out
		}
	}
	fcfg := machine.FaultConfig{}
	if len(drains) > 0 {
		// The hook consumes the plan's failure budget across the whole run
		// (pre-crash and resumed machine alike) — drain state is persistent
		// hardware, the plan is about the physical NVM device.
		fcfg.DrainError = func(core int, region uint64, attempt int) bool {
			for i := range drains {
				d := &drains[i]
				if d.fails <= 0 || d.core != core {
					continue
				}
				if d.region != 0 && d.region != region {
					continue
				}
				d.fails--
				return true
			}
			return false
		}
	}

	// Final-state verification. The default compares outputs and memory
	// byte-for-byte against the golden run. Workloads that register their own
	// invariant checker (the contention suite) are interleaving-dependent —
	// the strict pre-crash schedule and the re-interleaved resume legally
	// diverge from golden word-for-word — so for those the conservation
	// invariants are checked instead, plus exactly-once I/O (every thread
	// emits the same number of values as golden: no lost or doubled emits).
	verify := func(fin *machine.Machine) error { return verifyGolden(fin, g) }
	if plan.Target.Bench != "" {
		if b, err := workload.ByName(plan.Target.Bench); err == nil && b.Check != nil {
			scale := plan.Target.Scale
			if scale <= 0 {
				scale = 1
			}
			verify = func(fin *machine.Machine) error {
				if err := b.Check(scale, fin.MemSnapshot()); err != nil {
					return err
				}
				for t := range g.Outputs {
					if got := len(fin.Output(t)); got != len(g.Outputs[t]) {
						return fmt.Errorf("thread %d emitted %d values, golden %d", t, got, len(g.Outputs[t]))
					}
				}
				return nil
			}
		}
	}

	m, err := machine.New(pg, cfg)
	if err != nil {
		out.Err = err
		return out
	}
	flight := audit.NewFlightRecorder(audit.DefaultRecorderCap)
	aud := audit.NewAuditor(m.AuditOptions())
	aud.AttachRecorder(flight)
	tap := audit.Tee(flight, aud)
	m.SetTap(tap)
	m.ArmFaults(fcfg)
	out.Flight, out.Auditor = flight, aud

	finish := func(fin *machine.Machine) Outcome {
		out.Machine = fin
		out.EventsAudited = aud.EventsAudited()
		if fin != nil {
			out.DrainRetries += fin.Stats().DrainRetries
		}
		if err := aud.Err(); err != nil && out.Err == nil {
			out.Err = fmt.Errorf("audit: %w", err)
		}
		return out
	}

	var xerr *machine.DrainExhaustedError
	if err := m.RunUntil(plan.CrashAt); err != nil {
		if errors.As(err, &xerr) {
			// The retry budget ran out before the crash point: the machine
			// degraded to a structured hard stop. Expected, not a failure —
			// but the event stream up to the stop must still be legal.
			out.Exhausted = true
			return finish(m)
		}
		out.Err = fmt.Errorf("run to crash@%d: %w", plan.CrashAt, err)
		return finish(m)
	}
	if m.Done() {
		// Program finished before the crash point: no failure to inject, but
		// the completed run must still match golden and audit clean.
		out.Vacuous = true
		out.Err = verify(m)
		return finish(m)
	}

	img, err := m.CrashTorn(tears)
	if err != nil {
		out.Err = fmt.Errorf("crash@%d: image: %w", plan.CrashAt, err)
		return finish(m)
	}
	out.Crashed = true
	out.DrainRetries += m.Stats().DrainRetries

	// Recovery, interrupted by each recovery-crash fault in plan order.
	// lastImg tracks the image the final (completed) recovery ran from, for
	// the order-commutativity check below.
	var r *machine.Machine
	var rep *machine.RecoveryReport
	lastImg := img
	for _, step := range recoverySteps {
		lastImg = img
		m2, irep, nested, err := machine.RecoverInterrupted(img, tap, step)
		if err != nil {
			out.Err = fmt.Errorf("recover (interrupted@%d): %w", step, err)
			return finish(nil)
		}
		out.Recoveries++
		if nested == nil {
			// The protocol finished in fewer persistent steps than the fault
			// demanded; the recovery completed normally.
			r, rep = m2, irep
			break
		}
		out.NestedCrashes++
		img = nested
	}
	if r == nil {
		lastImg = img
		r, rep, err = machine.RecoverInstrumented(img, nil, tap)
		if err != nil {
			out.Err = fmt.Errorf("recover: %w", err)
			return finish(nil)
		}
		out.Recoveries++
	}
	if rep.ConflictingUndo != 0 {
		out.Err = fmt.Errorf("%d conflicting cross-core undo entries", rep.ConflictingUndo)
		return finish(r)
	}

	// Detectability: every per-core sync-op descriptor in the recovered
	// records must be backed by a persisted NVM version at least as new —
	// the op is provably complete, never half-present.
	if i := r.VerifyDetectable(); i >= 0 {
		rec := r.Records()[i]
		out.Err = fmt.Errorf("core %d: sync descriptor (op %d addr %#x seq %d) not backed by NVM: detectability broken",
			i, rec.Sync.Op, rec.Sync.Addr, rec.Sync.Seq)
		return finish(r)
	}

	// Order commutativity: recovering the same image with the core order
	// reversed must converge to the byte-identical persistent state. (The
	// auditor checks the order the machine actually used; this checks the
	// orders it didn't.)
	if len(lastImg.Streams) > 1 {
		rev := make([]int, len(lastImg.Streams))
		for i := range rev {
			rev[i] = len(rev) - 1 - i
		}
		r2, _, err := machine.RecoverInstrumented(lastImg, rev, nil)
		if err != nil {
			out.Err = fmt.Errorf("reversed-order recover: %w", err)
			return finish(r)
		}
		if !reflect.DeepEqual(r.NVMEntries(), r2.NVMEntries()) {
			out.Err = fmt.Errorf("recovery does not commute: reversed core order yields a different NVM image")
			return finish(r)
		}
		if !reflect.DeepEqual(r.Records(), r2.Records()) {
			out.Err = fmt.Errorf("recovery does not commute: reversed core order yields different recovery records")
			return finish(r)
		}
	}

	// The resumed run faces the same faulty NVM device: the drain-error
	// budget left in the plan keeps firing.
	r.ArmFaults(fcfg)
	if err := r.Run(); err != nil {
		if errors.As(err, &xerr) {
			out.Exhausted = true
			return finish(r)
		}
		out.Err = fmt.Errorf("resume: %w", err)
		return finish(r)
	}
	out.Err = verify(r)
	return finish(r)
}

// verifyGolden checks the machine's final outputs and architectural memory
// against the golden run.
func verifyGolden(m *machine.Machine, g *recovery.Golden) error {
	for t := range g.Outputs {
		if !reflect.DeepEqual(m.Output(t), g.Outputs[t]) {
			return fmt.Errorf("thread %d output %v, golden %v", t, m.Output(t), g.Outputs[t])
		}
	}
	snap := m.MemSnapshot()
	for a, v := range g.Mem {
		if got := snap[a]; got != v {
			return fmt.Errorf("mem[%#x] = %d, golden %d", a, got, v)
		}
	}
	return nil
}
