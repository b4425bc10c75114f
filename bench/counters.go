package main

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"

	"capri/internal/compile"
	"capri/internal/machine"
)

// simTotals sums the counters of every machine, compile and recovery a
// round ran, read from the public Stats, compile.Stats and RecoveryReport.
type simTotals struct {
	m          machine.Stats // summed; the Avg* fields stay zero
	rep        machine.RecoveryReport
	events     uint64 // audit events seen by the flight recorders
	violations uint64 // Fig. 7 violations the auditors reported
	comp       compileTotals
}

// compileTotals sums compile.Stats over a round's compiles.
type compileTotals struct {
	passNS      map[string]int64 // self-reported PassStat.WallNS by pass name
	verifyNS    int64
	inserted    int
	pruned      int
	hoisted     int
	unrolled    int
	staticInsts int
}

func (c *compileTotals) add(s compile.Stats) {
	if c.passNS == nil {
		c.passNS = map[string]int64{}
	}
	for _, p := range s.Passes {
		c.passNS[p.Name] += p.WallNS
		c.verifyNS += p.VerifyNS
	}
	c.inserted += s.CkptsInserted
	c.pruned += s.CkptsPruned
	c.hoisted += s.CkptsHoisted
	c.unrolled += s.LoopsUnrolled
	c.staticInsts += s.Static.Insts
}

// simulatedFields lists the Stats fields the modelled hardware determines,
// in a fixed order. Simulator-side counters (scheduler steps, decode cache,
// run queue) are left out: a simulator-only change may move them, and must
// leave these unchanged.
func simulatedFields(s *machine.Stats) []*uint64 {
	f := []*uint64{
		&s.Cycles, &s.Instret, &s.Stores, &s.Ckpts, &s.Boundaries, &s.StallCycles,
		&s.NVMWrites, &s.NVMWordWrites, &s.NVMStaleSkips,
		&s.FrontAllocs, &s.FrontMerges, &s.FrontStalls, &s.BoundaryEntries, &s.ElidedBds,
		&s.ScanHits, &s.WindowHits, &s.RedoSkipped, &s.DrainRetries, &s.DrainExhausted,
		&s.Regions, &s.L1Hits, &s.L1Misses, &s.L2Hits, &s.L2Misses, &s.DRAMHits, &s.DRAMMisses,
	}
	for i := range s.CycleBy {
		f = append(f, &s.CycleBy[i])
	}
	return f
}

// addStats folds one machine's counters into the round totals.
func (t *simTotals) addStats(s machine.Stats) {
	dst := simulatedFields(&t.m)
	for i, p := range simulatedFields(&s) {
		*dst[i] += *p
	}
	t.m.Steps += s.Steps
	t.m.DecodeBlocks += s.DecodeBlocks
	t.m.DecodeHits += s.DecodeHits
	t.m.DecodeFused += s.DecodeFused
	t.m.SchedQueueOps += s.SchedQueueOps
}

func (t *simTotals) addReport(r *machine.RecoveryReport) {
	t.rep.RegionsRedone += r.RegionsRedone
	t.rep.EntriesRedone += r.EntriesRedone
	t.rep.EntriesUndone += r.EntriesUndone
	t.rep.SlicesExecuted += r.SlicesExecuted
}

// digester builds an op's identity digest from simulated values only.
type digester struct{ h hash.Hash }

func newDigester() digester { return digester{sha256.New()} }

func (d digester) u64(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		d.h.Write(b[:])
	}
}

func (d digester) stats(s machine.Stats) {
	for _, p := range simulatedFields(&s) {
		d.u64(*p)
	}
}

// outputs hashes every thread's committed output tape.
func (d digester) outputs(m *machine.Machine, threads int) {
	for t := 0; t < threads; t++ {
		out := m.Output(t)
		d.u64(uint64(len(out)))
		d.u64(out...)
	}
}

func (d digester) sum() [32]byte {
	var s [32]byte
	d.h.Sum(s[:0])
	return s
}

// combine hashes a list of digests in order; nil for an empty list.
func combine(parts [][32]byte) []byte {
	if len(parts) == 0 {
		return nil
	}
	h := sha256.New()
	for _, p := range parts {
		h.Write(p[:])
	}
	return h.Sum(nil)
}
