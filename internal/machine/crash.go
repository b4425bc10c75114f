package machine

import (
	"cmp"
	"fmt"
	"slices"

	"capri/internal/audit"
	"capri/internal/mem"
	"capri/internal/prog"
	"capri/internal/proxy"
	"capri/internal/slab"
)

// CrashImage is everything that survives a power failure (paper §3.3 / §5.4):
// the NVM contents (program data plus the per-core recovery records and
// durable output), and the battery-backed proxy buffer contents per core —
// back-end entries first, then entries in flight on the proxy path, then
// front-end entries, preserving FIFO order. All volatile state (registers,
// caches, the DRAM cache, staged checkpoints of the uncommitted region) is
// gone.
//
// The image shares its NVM pages copy-on-write with the machine it was
// harvested from and with every machine recovered from it (and the immutable
// compiled program); everything else is its own. Each side copies a page
// before its first write to it, so mutating the live machine afterwards never
// changes the image, and one image supports any number of recovery
// attempts, concurrent ones included: a recovery only reads the image.
type CrashImage struct {
	Prog    *prog.Program
	Cfg     Config
	NVM     *mem.NVM
	Records []CoreRecord
	Streams [][]proxy.Entry
	Outputs [][]uint64
	Seq     uint64
}

// Crash harvests the persistent image of the machine. It can be taken at any
// stopping point (typically after RunUntil hit its crash step). The machine
// itself must not be used afterwards.
func (m *Machine) Crash() (*CrashImage, error) {
	return m.CrashTorn(nil)
}

// harvest copies the machine's persistent state into a CrashImage: the NVM
// as a copy-on-write clone, the streams into one entry backing (full-slice
// caps), their boundaries' payloads into one backing per kind and the outputs
// into one word backing; an empty output stays nil.
func (m *Machine) harvest() *CrashImage {
	img := &CrashImage{
		Prog:    m.prog,
		Cfg:     m.cfg,
		NVM:     m.nvm.Clone(),
		Seq:     m.seq,
		Records: append([]CoreRecord(nil), m.records...),
		Streams: make([][]proxy.Entry, len(m.cores)),
		Outputs: make([][]uint64, len(m.cores)),
	}
	var nent, nck, nem, nout int
	for t, c := range m.cores {
		e, ck, em := m.units[t].HarvestLen()
		nent, nck, nem = nent+e, nck+ck, nem+em
		nout += len(c.output)
	}
	entries := make([]proxy.Entry, 0, nent)
	ckpts := make([]proxy.RegCkpt, nck)
	emits := make([]uint64, nem)
	outputs := make([]uint64, 0, nout)
	for t, c := range m.cores {
		i := len(entries)
		entries = m.units[t].Harvest(entries, &ckpts, &emits)
		img.Streams[t] = entries[i:len(entries):len(entries)]
		if len(c.output) > 0 {
			i = len(outputs)
			outputs = append(outputs, c.output...)
			img.Outputs[t] = outputs[i:len(outputs):len(outputs)]
		}
	}
	return img
}

// RecoveryReport describes what the recovery protocol did.
type RecoveryReport struct {
	RegionsRedone   int // committed regions replayed from proxy buffers
	EntriesRedone   int // redo applications attempted
	EntriesUndone   int // undo applications attempted
	UndoneApplied   int // undos that actually rewrote NVM
	SlicesExecuted  int // recovery slices run (pruned checkpoints)
	CoresResumed    int
	CoresHalted     int
	ConflictingUndo int // cross-core uncommitted conflicts (0 for DRF code)
}

// Recover rebuilds a runnable machine from a crash image, implementing the
// recovery protocol of §5.4:
//
//  1. For each core's entry stream, every region whose boundary (commit
//     marker) is present is redone: valid redo data moves to NVM under the
//     sequence guard and the marker's checkpoint payload updates the core's
//     recovery record.
//  2. Entries after the last marker belong to the interrupted region and are
//     rolled back: undo data restores NVM, applied across cores in
//     descending global store order.
//  3. Each core reloads its architectural registers from the checkpoint
//     record, executes the recovery slices of its resume block (pruned
//     checkpoints, §4.4.1), and resumes at the recorded PC — the beginning
//     of the interrupted region.
//
// Output devices are registered before the protocol runs, so regions that
// committed before the crash but had not yet finished phase 2 deliver their
// output to the devices during replay — preserving the exactly-once
// guarantee across the crash (§3.3's I/O story).
func Recover(img *CrashImage, devices ...OutputDevice) (*Machine, *RecoveryReport, error) {
	return RecoverInstrumented(img, nil, nil, devices...)
}

// RecoverInstrumented is Recover with full observability and an explicit
// replay order. The tap is installed on the rebuilt machine *before* the
// protocol runs, so the recovery events themselves — redo writes, undos, the
// done marker — reach an attached Auditor, FlightRecorder or trace Recorder,
// and the tap stays live for resumed execution. order is phase A's per-stream
// core order and must be a permutation of the core indices (nil: identity).
// Recovery is order-independent — the sequence guard makes cross-core redo
// applications commute, and phase B's undo pass is globally sorted — so every
// order must converge to the same persistent image; the permutation tests pin
// exactly that.
func RecoverInstrumented(img *CrashImage, order []int, tap audit.Sink, devices ...OutputDevice) (*Machine, *RecoveryReport, error) {
	if order != nil {
		seen := make([]bool, len(img.Streams))
		if len(order) != len(img.Streams) {
			return nil, nil, fmt.Errorf("machine: recovery order has %d cores, image has %d", len(order), len(img.Streams))
		}
		for _, t := range order {
			if t < 0 || t >= len(img.Streams) || seen[t] {
				return nil, nil, fmt.Errorf("machine: recovery order %v is not a permutation of %d cores", order, len(img.Streams))
			}
			seen[t] = true
		}
	}
	m, rep, _, err := recoverCore(img, tap, 0, order, devices...)
	return m, rep, err
}

// RecoverInterrupted runs the §5.4 protocol but injects a nested power
// failure after stopAfter persistent protocol steps — redo write
// applications, marker folds, and undo applications, the NVM mutations a
// real recovery performs. If the protocol finishes in fewer steps, the
// recovered machine is returned with a nil nested image. Otherwise recovery
// stops mid-flight and the partially recovered persistent state is harvested
// into a fresh CrashImage (NVM and records as mutated so far; the original
// battery-backed streams, which recovery only reads): §5.4 must be
// restartable from any such point, converging to the same final image as an
// uninterrupted recovery.
func RecoverInterrupted(img *CrashImage, tap audit.Sink, stopAfter uint64, devices ...OutputDevice) (*Machine, *RecoveryReport, *CrashImage, error) {
	return recoverCore(img, tap, stopAfter, nil, devices...)
}

// recoverCore is the one implementation of the recovery protocol. stopAfter
// is the nested-crash fault injection point (0: run to completion); order is
// phase A's stream replay order (nil: core index order).
func recoverCore(img *CrashImage, tap audit.Sink, stopAfter uint64, order []int, devices ...OutputDevice) (*Machine, *RecoveryReport, *CrashImage, error) {
	m, err := build(img.Prog, img.Cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	m.SetTap(tap)
	m.devices = append(m.devices, devices...)
	rep := &RecoveryReport{}
	m.nvm = img.NVM.Clone()
	m.seq = img.Seq
	copy(m.records, img.Records)
	copyOutputs(m.cores, img.Outputs)

	// Persistent-step counter for the nested-crash injection point.
	steps := uint64(0)
	interrupt := func() bool {
		steps++
		return stopAfter != 0 && steps >= stopAfter
	}

	// Phase A: replay committed regions from the buffers, in stream order.
	// A region's data entries are the run of entries since the previous
	// marker, so the pending ones are a subslice of the stream.
	var uncommitted []undoEntry
	for k := range img.Streams {
		t := k
		if order != nil {
			t = order[k]
		}
		stream := img.Streams[t]
		start := 0
		for i := range stream {
			e := &stream[i]
			if e.Kind == proxy.KindData {
				continue
			}
			// Commit marker: redo the region.
			rep.RegionsRedone++
			for j := start; j < i; j++ {
				if d := &stream[j]; d.Valid {
					rep.EntriesRedone++
					applied := m.nvm.Write(d.Addr, d.Redo, d.Seq)
					if m.tap != nil {
						ev := audit.Event{
							Kind: audit.EvRecoveryRedoWrite, Core: int32(t),
							Addr: d.Addr, Seq: d.Seq, Region: e.Region, Val: d.Redo,
						}
						if applied {
							ev.Flags |= audit.FlagApplied
						}
						m.tap.Tap(ev)
					}
					if interrupt() {
						return m.nestedCrash(img, rep)
					}
				}
			}
			start = i + 1
			m.applyMarker(t, &proxy.Boundary{
				Region: e.Region, PCFunc: e.PCFunc, PCBlk: e.PCBlk, PCIdx: e.PCIdx,
				SP: e.SP, Halt: e.Halt, Sync: e.Sync,
			}, e.Ckpts, e.Emits)
			if m.tap != nil {
				m.tap.Tap(audit.Event{Kind: audit.EvRecoveryRedo, Core: int32(t), Region: e.Region})
			}
			if interrupt() {
				return m.nestedCrash(img, rep)
			}
		}
		pending := stream[start:]
		for i := range pending {
			uncommitted = append(uncommitted, undoEntry{e: &pending[i], core: t})
		}
	}

	// Phase B: roll back the interrupted region(s), newest store first.
	slices.SortFunc(uncommitted, func(a, b undoEntry) int { return cmp.Compare(b.e.Seq, a.e.Seq) })
	seenAddr := map[uint64]int{}
	for _, u := range uncommitted {
		if prev, ok := seenAddr[u.e.Addr]; ok && prev != u.core {
			// Two cores with uncommitted writes to one address: a data race
			// (DRF programs synchronize through committed sync regions).
			rep.ConflictingUndo++
		}
		seenAddr[u.e.Addr] = u.core
		rep.EntriesUndone++
		applied := false
		if m.nvm.Peek(u.e.Addr).Seq >= u.e.FirstSeq {
			// NVM holds the effect of *some* store merged into this entry —
			// a dirty writeback may have persisted any intermediate version
			// of the region, not just the newest — so restore the pre-region
			// image.
			newSeq := uint64(0)
			if u.e.FirstSeq > 0 {
				newSeq = u.e.FirstSeq - 1
			}
			m.nvm.Restore(u.e.Addr, u.e.Undo, newSeq)
			rep.UndoneApplied++
			applied = true
		}
		if m.tap != nil {
			ev := audit.Event{
				Kind: audit.EvRecoveryUndo, Core: int32(u.core),
				Addr: u.e.Addr, Seq: u.e.FirstSeq, Val: u.e.Undo,
			}
			if applied {
				ev.Flags |= audit.FlagApplied
			}
			m.tap.Tap(ev)
		}
		if interrupt() {
			return m.nestedCrash(img, rep)
		}
	}

	// Phase C: rebuild architectural memory from consistent NVM (page-copied,
	// keeping the image's backing kind) and resume every core at its last
	// committed boundary. Purely volatile — a crash here is a crash before
	// the resumed run's first instruction.
	m.mem = mem.MemFromNVM(m.nvm)
	for t := range m.cores {
		c := m.cores[t]
		rec := m.records[t]
		c.resumeAt(rec)
		if rec.Halted {
			m.haltedCores++
			rep.CoresHalted++
			continue
		}
		if rec.Region > 0 {
			// Any order would do: no slice reads a register another slice
			// of the block rebuilds (sliceLeafsOn in compile/prune.go).
			for _, s := range m.prog.Funcs[rec.Fn].Blocks[rec.Blk].RecoverySlices {
				execSlice(&c.regs, s.Insts)
				rep.SlicesExecuted++
			}
		}
		rep.CoresResumed++
	}
	if m.tap != nil {
		m.tap.Tap(audit.Event{Kind: audit.EvRecoveryDone, Count: uint32(len(m.cores))})
	}
	return m, rep, nil, nil
}

// undoEntry is one uncommitted data entry of a crash image's stream and the
// core whose stream holds it.
type undoEntry struct {
	e    *proxy.Entry
	core int
}

// copyOutputs gives each recovered core a copy of its durable output tape,
// all carved from one backing (full-slice caps: appends after recovery
// reallocate).
func copyOutputs(cores []*core, outputs [][]uint64) {
	n := 0
	for _, o := range outputs {
		n += len(o)
	}
	words := make([]uint64, n)
	for t, o := range outputs {
		cores[t].output = slab.Carve(&words, len(o), 0)
		copy(cores[t].output, o)
	}
}

// nestedCrash harvests the mid-recovery persistent image: NVM and records as
// mutated by the partial replay, the original battery-backed streams (which
// recovery reads but never consumes, so the two images share them) and the
// output delivered so far.
func (m *Machine) nestedCrash(img *CrashImage, rep *RecoveryReport) (*Machine, *RecoveryReport, *CrashImage, error) {
	if m.tap != nil {
		m.tap.Tap(audit.Event{Kind: audit.EvCrash, Flags: audit.FlagNested, Cycle: m.Cycles()})
	}
	nested := &CrashImage{
		Prog:    img.Prog,
		Cfg:     img.Cfg,
		NVM:     m.nvm.Clone(),
		Seq:     img.Seq,
		Streams: img.Streams,
	}
	nested.Records = append(nested.Records, m.records...)
	for t := range img.Streams {
		nested.Outputs = append(nested.Outputs, append([]uint64(nil), m.cores[t].output...))
	}
	return nil, rep, nested, nil
}

// NVMEntries exports the machine's persisted NVM image, sorted by address —
// the byte-identical form the convergence tests compare.
func (m *Machine) NVMEntries() []mem.WordEntry { return m.nvm.Entries() }
