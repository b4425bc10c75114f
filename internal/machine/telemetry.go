package machine

import (
	"sync/atomic"

	"capri/internal/telemetry"
)

// Live telemetry hook (DESIGN.md §4j). The scheduler loop publishes
// progress into the process-global telemetry.Machines snapshot in batches
// of telePublishEvery steps, but only when a telemetry bus has armed it:
// run() reads telemetry.ArmedMachine() once per entry, so the cost when
// telemetry is off is one atomic pointer load per run plus one nil check
// per scheduler pop — nothing on the per-instruction path, and zero
// allocations either way.
//
// Counters (cycles, instret) are published as
// saturating deltas against the machine's last-published values, so
// process totals stay monotone even when recovery rebuilds cores and a
// per-machine total restarts. Gauges (buffer occupancies, WPQ depth) are
// published as wrapping deltas, so the global value is always the exact
// sum over running machines; the exit publish retires this machine's
// gauge contribution back to zero.

// telePublishEvery is the publish batch size in scheduler steps. At the
// simulator's typical tens-of-millions steps per second this yields a few
// thousand publishes per second — far denser than any sampler interval,
// for a handful of atomic adds each.
const telePublishEvery = 1 << 14

// telePub is the machine's last-published telemetry state, the delta
// base for the next publish.
type telePub struct {
	steps   uint64
	cycles  uint64
	instret uint64
	front   uint64
	back    uint64
	path    uint64
	drain   uint64
	wpq     uint64
	// drainCore is the per-core drain-queue delta base; cores at or
	// beyond the gauge bound fold into the last slot, mirroring the
	// snapshot's layout.
	drainCore [telemetry.MaxCoreGauges]uint64
}

// telemetryEnter marks the machine live on the armed snapshot. The delta
// base is NOT reset: counters keep their last-published values across run
// segments (RunUntil resume, recovery re-entry), so nothing is published
// twice.
func (m *Machine) telemetryEnter(t *telemetry.MachineTelemetry) {
	m.tele = t
	t.Active.Add(1)
	t.NoteCores(len(m.cores))
}

// telemetryExit publishes the machine's final counter state, retires its
// gauge contributions, and marks the run complete.
func (m *Machine) telemetryExit() {
	m.publishTelemetry(true)
	m.tele.Runs.Add(1)
	m.tele.Active.Add(-1)
	m.tele = nil
}

// pubCounter adds the saturating delta cur−last to a monotone counter.
// A current value below the base (e.g. cycles after recovery rebuilt the
// cores) publishes nothing and just re-bases.
func pubCounter(c *atomic.Uint64, cur uint64, last *uint64) {
	if cur > *last {
		c.Add(cur - *last)
	}
	*last = cur
}

// pubGauge adds the wrapping delta cur−last to a summed gauge; uint64
// wraparound makes negative movements exact.
func pubGauge(g *atomic.Uint64, cur uint64, last *uint64) {
	if cur != *last {
		g.Add(cur - *last)
	}
	*last = cur
}

// publishTelemetry pushes the machine's current progress into the armed
// snapshot. final (the exit publish) retires the gauges to zero so a
// finished machine stops contributing occupancy. Allocation-free.
func (m *Machine) publishTelemetry(final bool) {
	t := m.tele
	p := &m.telePub
	p.steps = m.steps
	cycles := m.Cycles()
	pubCounter(&t.Cycles, cycles, &p.cycles)
	pubCounter(&t.Instret, m.retired, &p.instret)
	var front, back, path, drain, wpq uint64
	var drainCore [telemetry.MaxCoreGauges]uint64
	if !final {
		for i, c := range m.cores {
			if c.front == nil {
				continue
			}
			front += uint64(c.front.Len())
			back += uint64(c.back.Len())
			path += uint64(c.path.InFlight())
			d := uint64(c.back.Booked())
			drain += d
			if i >= telemetry.MaxCoreGauges {
				i = telemetry.MaxCoreGauges - 1
			}
			drainCore[i] += d
		}
		wpq = m.nvm.PendingLineWrites(cycles, m.cfg.NVMWrite)
	}
	pubGauge(&t.FrontOcc, front, &p.front)
	pubGauge(&t.BackOcc, back, &p.back)
	pubGauge(&t.PathInFlight, path, &p.path)
	pubGauge(&t.DrainQueue, drain, &p.drain)
	pubGauge(&t.WPQDepth, wpq, &p.wpq)
	for i := range drainCore {
		pubGauge(&t.DrainQueueCore[i], drainCore[i], &p.drainCore[i])
	}
}
