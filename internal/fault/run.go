package fault

import (
	"fmt"

	"capri/internal/machine"
	"capri/internal/prog"
	"capri/internal/recovery"
	"capri/internal/workload"
)

// RunPlan executes one fault plan against a compiled target through the
// crash driver, recovery.Run: the plan's torn writes fire at the power
// failure, its recovery crashes interrupt recovery in plan order, and its
// drain errors fail phase-2 drains on the pre-crash and the resumed machine
// alike. Benchmarks that register an invariant checker (the contention
// suite) are judged by it instead of word-for-word golden state.
func RunPlan(pg *prog.Program, cfg machine.Config, g *recovery.Golden, plan Plan) recovery.Outcome {
	type drainFault struct {
		core   int
		region uint64
		fails  int
	}
	var drains []drainFault
	var f recovery.Faults
	for _, ft := range plan.Faults {
		switch ft.Kind {
		case KindTornWriteback:
			f.Tears = append(f.Tears, machine.Tear{Kind: machine.TearWriteback, Pick: ft.Pick, Keep: ft.Keep})
		case KindTornDrain:
			f.Tears = append(f.Tears, machine.Tear{Kind: machine.TearDrain, Pick: ft.Core, Keep: ft.Keep})
		case KindRecoveryCrash:
			f.Nested = append(f.Nested, ft.Step)
		case KindDrainError:
			drains = append(drains, drainFault{core: ft.Core, region: ft.Region, fails: ft.Fails})
		default:
			return recovery.Outcome{Err: fmt.Errorf("unknown fault kind %q", ft.Kind)}
		}
	}
	// The plan models a physical NVM device, so it is always armed; the
	// drain-error hook consumes the plan's failure budget across the whole
	// run.
	f.Device = &machine.FaultConfig{}
	if len(drains) > 0 {
		f.Device.DrainError = func(core int, region uint64, attempt int) bool {
			for i := range drains {
				d := &drains[i]
				if d.fails <= 0 || d.core != core || (d.region != 0 && d.region != region) {
					continue
				}
				d.fails--
				return true
			}
			return false
		}
	}
	if plan.Target.Bench != "" {
		if b, err := workload.ByName(plan.Target.Bench); err == nil && b.Check != nil {
			scale := max(plan.Target.Scale, 1)
			gc := *g
			gc.Check = func(mem map[uint64]uint64) error { return b.Check(scale, mem) }
			g = &gc
		}
	}
	return recovery.Run(pg, cfg, g, plan.CrashAt, f)
}
