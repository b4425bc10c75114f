package proxy

// The proxy differential: a fuzzed stream of operations runs through one
// core's proxy hardware as NewUnits builds it and through refUnit, a model of
// the same contract in plain slices of whole entries (every record carries its
// own payload, as the architectural entry of paper Figure 5 does), and every
// observable is compared after every operation: return values, merges,
// stalls, elision, departures, arrivals with their window verdicts, popped and
// peeked regions with their checkpoint and emit payloads, the buffered
// entries, the harvested wire and every counter. The model has no rings, side
// tables or arenas to get wrong, so it pins the layout's behaviour, not its
// shape.

import (
	"reflect"
	"testing"

	"capri/internal/isa"
)

// arrival is one delivered entry as the back end's caller sees it.
type arrival struct {
	E        Entry
	Arrives  uint64
	Hit      bool
	Accepted bool
}

// unitCounters are the statistics of one unit's three parts.
type unitCounters struct {
	Allocs, Merges, Boundary, ElidedBds, Stalls uint64
	WindowHits, BackMerges, ScanHits, Overflow  uint64
}

// unitState is everything observable about a unit between operations.
type unitState struct {
	Front, Back []Entry
	Staged      []RegCkpt
	InFlight    int
	HasRegion   bool
	Counters    unitCounters
}

// region is a committed region with its payload, copied out.
type region struct {
	Data     []Entry
	Boundary Entry
	OK       bool
}

// diffConfig is the unit geometry a stream's first bytes choose.
type diffConfig struct {
	frontCap, backCap           int
	latency, interval           uint64
	noMergeF, noMergeB, noElide bool
}

// unitUnderTest is one side of the differential.
type unitUnderTest interface {
	addStore(addr, undo, redo, seq uint64) bool
	stageCkpt(r isa.Reg, v uint64)
	stageSync(s SyncRec)
	addBoundary(region uint64, pc int32, sp uint64, emits []uint64, hadStores, force, halt bool) (ok, elided bool)
	send(now uint64) (depart uint64, e Entry, ok bool)
	deliver(now uint64) []arrival
	note(addr, seq, now uint64)
	scan(addr, seq uint64) int
	pop() region
	peek(k int) region
	drainAll() []Entry
	state() unitState
}

// copyEntry deep-copies e's payloads, an empty one as nil.
func copyEntry(e Entry) Entry {
	e.Ckpts = append([]RegCkpt(nil), e.Ckpts...)
	e.Emits = append([]uint64(nil), e.Emits...)
	return e
}

func copyEntries(es []Entry) []Entry {
	var out []Entry
	for _, e := range es {
		out = append(out, copyEntry(e))
	}
	return out
}

// refUnit is the model: the front end, the wire and the back end are plain
// slices of whole entries, oldest first.
type refUnit struct {
	cfg        diffConfig
	front      []Entry
	staged     []RegCkpt
	sync       SyncRec
	wire       []arrival // E and Arrives only
	nextDepart uint64
	back       []Entry
	win        map[uint64]windowEntry
	c          unitCounters
}

func newRefUnit(cfg diffConfig) *refUnit {
	return &refUnit{cfg: cfg, win: map[uint64]windowEntry{}}
}

func (m *refUnit) addStore(addr, undo, redo, seq uint64) bool {
	for i := len(m.front) - 1; i >= 0 && !m.cfg.noMergeF; i-- {
		e := &m.front[i]
		if e.Kind == KindBoundary {
			break
		}
		if e.Addr == addr {
			e.Redo, e.Seq = redo, seq
			m.c.Merges++
			return true
		}
	}
	if len(m.front) >= m.cfg.frontCap {
		m.c.Stalls++
		return false
	}
	m.front = append(m.front, Entry{Kind: KindData, Addr: addr, Undo: undo, Redo: redo, Seq: seq, FirstSeq: seq, Valid: true})
	m.c.Allocs++
	return true
}

func (m *refUnit) stageCkpt(r isa.Reg, v uint64) {
	for i := range m.staged {
		if m.staged[i].Reg == r {
			m.staged[i].Val = v
			return
		}
	}
	m.staged = append(m.staged, RegCkpt{Reg: r, Val: v})
}

func (m *refUnit) stageSync(s SyncRec) { m.sync = s }

func (m *refUnit) addBoundary(region uint64, pc int32, sp uint64, emits []uint64, hadStores, force, halt bool) (bool, bool) {
	if !hadStores && len(m.staged) == 0 && len(emits) == 0 && m.sync.Op == 0 && !force && !m.cfg.noElide {
		m.c.ElidedBds++
		return true, true
	}
	if len(m.front) >= m.cfg.frontCap {
		m.c.Stalls++
		return false, false
	}
	m.front = append(m.front, copyEntry(Entry{
		Kind: KindBoundary, Region: region, PCFunc: pc, PCBlk: pc + 1, PCIdx: pc + 2, SP: sp,
		Ckpts: m.staged, Emits: emits, Halt: halt, Sync: m.sync,
	}))
	m.staged, m.sync = nil, SyncRec{}
	m.c.Boundary++
	return true, false
}

func (m *refUnit) send(now uint64) (uint64, Entry, bool) {
	if len(m.front) == 0 {
		return 0, Entry{}, false
	}
	e := m.front[0]
	m.front = m.front[1:]
	depart := max(now, m.nextDepart)
	m.nextDepart = depart + m.cfg.interval
	m.wire = append(m.wire, arrival{E: e, Arrives: depart + m.cfg.latency})
	return depart, copyEntry(e), true
}

func (m *refUnit) deliver(now uint64) []arrival {
	var out []arrival
	for len(m.wire) > 0 && m.wire[0].Arrives <= now {
		a := m.wire[0]
		m.wire = m.wire[1:]
		if a.E.Kind == KindData {
			if we, ok := m.win[a.E.Addr]; ok && a.Arrives <= we.expiry && a.E.Seq <= we.seq {
				a.E.Valid = false
				a.Hit = true
				m.c.WindowHits++
			}
		}
		a.Accepted = m.accept(a.E)
		a.E = copyEntry(a.E)
		out = append(out, a)
	}
	return out
}

func (m *refUnit) accept(e Entry) bool {
	if e.Kind == KindData && !m.cfg.noMergeB {
		for i := len(m.back) - 1; i >= 0; i-- {
			x := &m.back[i]
			if x.Kind == KindBoundary {
				break
			}
			if x.Addr == e.Addr {
				x.Redo = e.Redo
				x.Seq = max(x.Seq, e.Seq)
				x.FirstSeq = min(x.FirstSeq, e.FirstSeq)
				x.Valid = e.Valid
				m.c.BackMerges++
				return true
			}
		}
	}
	if e.Kind == KindData {
		n := 0
		for _, x := range m.back {
			if x.Kind == KindData {
				n++
			}
		}
		if n >= m.cfg.backCap {
			m.c.Overflow++
			return false
		}
	}
	m.back = append(m.back, e)
	return true
}

func (m *refUnit) note(addr, seq, now uint64) {
	we, ok := m.win[addr]
	if !ok || we.seq < seq || we.expiry < now+m.cfg.latency {
		m.win[addr] = windowEntry{expiry: now + m.cfg.latency, seq: seq}
	}
}

func (m *refUnit) scan(addr, seq uint64) int {
	n := 0
	for i := range m.back {
		if e := &m.back[i]; e.Kind == KindData && e.Addr == addr && e.Valid && e.Seq <= seq {
			e.Valid = false
			m.c.ScanHits++
			n++
		}
	}
	return n
}

func (m *refUnit) peek(k int) region {
	start := 0
	for i, e := range m.back {
		if e.Kind != KindBoundary {
			continue
		}
		if k == 0 {
			return region{Data: copyEntries(m.back[start:i]), Boundary: copyEntry(e), OK: true}
		}
		k--
		start = i + 1
	}
	return region{}
}

func (m *refUnit) pop() region {
	r := m.peek(0)
	if r.OK {
		m.back = m.back[len(r.Data)+1:]
	}
	return r
}

func (m *refUnit) drainAll() []Entry {
	var out []Entry
	for _, a := range m.wire {
		out = append(out, copyEntry(a.E))
	}
	m.wire = nil
	return out
}

func (m *refUnit) state() unitState {
	hasRegion := m.peek(0).OK
	return unitState{
		Front: copyEntries(m.front), Back: copyEntries(m.back),
		Staged: append([]RegCkpt(nil), m.staged...), InFlight: len(m.wire),
		HasRegion: hasRegion, Counters: m.c,
	}
}

// diffOps are the differential's operations, one opcode byte each followed
// by its operand bytes. Addresses come from an eight-word pool so stores
// merge and scans and windows hit; sequences are the stream's own store
// counter, so they increase as the machine's do.
const (
	dopStore    = iota // addr undo redo
	dopCkpt            // reg val
	dopSync            // op addr
	dopBoundary        // flags emits
	dopSend            //
	dopAdvance         // cycles
	dopDeliver         //
	dopNote            // addr age
	dopScan            // addr age
	dopPop             //
	dopPeek            // k
	dopDrainAll        //
	numDiffOps
)

var diffOpArgs = [numDiffOps]int{dopStore: 3, dopCkpt: 2, dopSync: 2, dopBoundary: 2, dopAdvance: 1, dopNote: 2, dopScan: 2, dopPeek: 1}

// maxDiffBytes bounds a decoded stream.
const maxDiffBytes = 512

// runDiff decodes a stream (five geometry bytes, then operations) and
// applies it to the unit under test and the model, comparing after every
// operation. Trailing bytes too short for an operation are ignored.
func runDiff(t *testing.T, data []byte, newUnit func(*testing.T, diffConfig) unitUnderTest) {
	if len(data) < 5 {
		return
	}
	cfg := diffConfig{
		frontCap: 1 + int(data[0]%8), backCap: 1 + int(data[1]%16),
		latency: uint64(data[2] % 24), interval: 1 + uint64(data[3]%4),
		noMergeF: data[4]&1 != 0, noMergeB: data[4]&2 != 0, noElide: data[4]&4 != 0,
	}
	got, want := newUnit(t, cfg), newRefUnit(cfg)
	ops := data[5:min(len(data), maxDiffBytes)]
	var now, seq, region uint64
	for step := 0; len(ops) > 0; step++ {
		op := int(ops[0]) % numDiffOps
		if len(ops) < 1+diffOpArgs[op] {
			break
		}
		arg := ops[1 : 1+diffOpArgs[op]]
		ops = ops[1+diffOpArgs[op]:]
		addr := func(i int) uint64 { return 0x1000 + 8*uint64(arg[i]%8) }
		var g, w any
		switch op {
		case dopStore:
			seq++
			g = got.addStore(addr(0), uint64(arg[1]), uint64(arg[2]), seq)
			w = want.addStore(addr(0), uint64(arg[1]), uint64(arg[2]), seq)
		case dopCkpt:
			got.stageCkpt(isa.Reg(arg[0]%isa.NumRegs), uint64(arg[1]))
			want.stageCkpt(isa.Reg(arg[0]%isa.NumRegs), uint64(arg[1]))
		case dopSync:
			seq++
			s := SyncRec{Op: arg[0] % 4, Addr: addr(1), Old: uint64(arg[1]), New: uint64(arg[0]), Seq: seq}
			got.stageSync(s)
			want.stageSync(s)
		case dopBoundary:
			region++
			emits := make([]uint64, arg[1]%4)
			for i := range emits {
				emits[i] = region<<8 | uint64(i)
			}
			f := arg[0]
			pc, sp := int32(region%5), 0x8000+region
			gok, gel := got.addBoundary(region, pc, sp, emits, f&1 != 0, f&2 != 0, f&4 != 0)
			wok, wel := want.addBoundary(region, pc, sp, emits, f&1 != 0, f&2 != 0, f&4 != 0)
			g, w = [2]bool{gok, gel}, [2]bool{wok, wel}
			if !wok {
				region--
			}
		case dopSend:
			gd, ge, gok := got.send(now)
			wd, we, wok := want.send(now)
			g, w = []any{gd, ge, gok}, []any{wd, we, wok}
		case dopAdvance:
			now += uint64(arg[0] % 32)
		case dopDeliver:
			g, w = got.deliver(now), want.deliver(now)
		case dopNote:
			s := seq - min(seq, uint64(arg[1]%8))
			got.note(addr(0), s, now)
			want.note(addr(0), s, now)
		case dopScan:
			s := seq - min(seq, uint64(arg[1]%8))
			g, w = got.scan(addr(0), s), want.scan(addr(0), s)
		case dopPop:
			g, w = got.pop(), want.pop()
		case dopPeek:
			g, w = got.peek(int(arg[0]%3)), want.peek(int(arg[0]%3))
		case dopDrainAll:
			g, w = got.drainAll(), want.drainAll()
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("step %d (op %d %v): got %+v, model %+v", step, op, arg, g, w)
		}
		if gs, ws := got.state(), want.state(); !reflect.DeepEqual(gs, ws) {
			t.Fatalf("step %d (op %d %v): state\n got   %+v\n model %+v", step, op, arg, gs, ws)
		}
	}
}

// FuzzProxyDifferential runs fuzzed operation streams through NewUnits'
// hardware and the model.
func FuzzProxyDifferential(f *testing.F) {
	for _, s := range diffSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runDiff(t, data, newRealUnit) })
}

// diffSeeds are hand-written streams covering each operation: a region of
// merging stores with checkpoints, a sync and emits sent, delivered under an
// open window and popped; elided, forced and halting boundaries on a full
// front end; a back end overflowing; a harvest of the wire; and two regions
// buffered in the back end, peeked at past the oldest.
var diffSeeds = [][]byte{
	{8, 8, 10, 2, 0, dopStore, 1, 0, 1, dopStore, 1, 1, 2, dopCkpt, 3, 9, dopSync, 1, 2, dopBoundary, 1, 2,
		dopSend, dopSend, dopNote, 1, 0, dopAdvance, 31, dopDeliver, dopPeek, 0, dopPop, dopPop},
	{1, 2, 4, 1, 4, dopBoundary, 0, 0, dopBoundary, 2, 0, dopBoundary, 6, 1, dopSend, dopBoundary, 4, 3,
		dopStore, 2, 0, 0, dopAdvance, 20, dopDeliver, dopPeek, 1, dopPop},
	{7, 1, 0, 1, 3, dopStore, 1, 1, 1, dopStore, 2, 2, 2, dopStore, 1, 3, 3, dopBoundary, 1, 0,
		dopSend, dopSend, dopSend, dopSend, dopDeliver, dopScan, 1, 0, dopPeek, 0, dopPop},
	{4, 4, 20, 3, 0, dopStore, 5, 5, 5, dopCkpt, 7, 7, dopBoundary, 1, 1, dopSend, dopSend, dopStore, 5, 6, 6,
		dopSend, dopDrainAll, dopAdvance, 31, dopDeliver, dopSend, dopAdvance, 31, dopDeliver},
	{7, 8, 2, 1, 0, dopStore, 1, 0, 1, dopCkpt, 1, 1, dopBoundary, 1, 1, dopStore, 2, 0, 2, dopStore, 3, 0, 3,
		dopBoundary, 1, 2, dopSend, dopSend, dopSend, dopSend, dopSend, dopAdvance, 31, dopDeliver,
		dopPeek, 1, dopPeek, 2, dopPop, dopPeek, 0, dopPeek, 1},
}

// realUnit drives one unit NewUnits builds, copying every entry it
// observes out of the hardware's storage.
type realUnit struct {
	t *testing.T
	u *Unit
}

func newRealUnit(t *testing.T, cfg diffConfig) unitUnderTest {
	u := &NewUnits(1, cfg.frontCap, cfg.backCap, cfg.latency, cfg.interval, &Window{Latency: cfg.latency})[0]
	u.Front.NoMerge, u.Back.NoMerge, u.Front.NoElide = cfg.noMergeF, cfg.noMergeB, cfg.noElide
	return &realUnit{t: t, u: u}
}

func (r *realUnit) addStore(addr, undo, redo, seq uint64) bool {
	return r.u.Front.AddStore(addr, undo, redo, seq)
}

func (r *realUnit) stageCkpt(reg isa.Reg, v uint64) { r.u.Front.StageCkpt(reg, v) }

func (r *realUnit) stageSync(s SyncRec) { r.u.Front.StageSync(s) }

func (r *realUnit) addBoundary(region uint64, pc int32, sp uint64, emits []uint64, hadStores, force, halt bool) (bool, bool) {
	return r.u.Front.AddBoundary(region, pc, pc+1, pc+2, sp, emits, hadStores, force, halt)
}

func (r *realUnit) send(now uint64) (uint64, Entry, bool) {
	if r.u.Front.Len() == 0 {
		return 0, Entry{}, false
	}
	e := r.u.Front.Peek()
	sent := r.entry(e)
	depart := r.u.Path.SendFrom(e, now)
	r.u.Front.DropHead()
	return depart, sent, true
}

// entry copies a live record out as an entry, payloads included.
func (r *realUnit) entry(rec *Rec) Entry {
	return copyEntry(r.u.bd.appendEntries(nil, []Rec{*rec}, new([]RegCkpt), new([]uint64))[0])
}

func (r *realUnit) entries(recs []Rec) []Entry {
	var out []Entry
	for i := range recs {
		out = append(out, r.entry(&recs[i]))
	}
	return out
}

func (r *realUnit) deliver(now uint64) []arrival {
	var out []arrival
	r.u.Path.DeliverEach(now, func(rec *Rec, b *Boundary, arrives uint64, hit bool) {
		if (b != nil) != (rec.Kind == KindBoundary) {
			r.t.Fatalf("delivered %+v with boundary %v", rec, b)
		}
		a := arrival{E: r.entry(rec), Arrives: arrives, Hit: hit}
		a.Accepted = r.u.Back.AcceptFrom(rec)
		out = append(out, a)
	})
	return out
}

func (r *realUnit) note(addr, seq, now uint64) { r.u.Path.win.Note(addr, seq, now) }

func (r *realUnit) scan(addr, seq uint64) int { return r.u.Back.ScanInvalidate(addr, seq) }

// region copies a committed region out as entries.
func (r *realUnit) region(cr CommittedRegion, ok bool) region {
	if !ok {
		return region{}
	}
	b := cr.Boundary
	return region{
		Data: r.entries(cr.Data),
		Boundary: copyEntry(Entry{
			Kind: KindBoundary, Region: b.Region, PCFunc: b.PCFunc, PCBlk: b.PCBlk, PCIdx: b.PCIdx,
			SP: b.SP, Ckpts: cr.Ckpts, Emits: cr.Emits, Halt: b.Halt, Sync: b.Sync,
		}),
		OK: true,
	}
}

func (r *realUnit) pop() region { return r.region(r.u.Back.PopRegion()) }

func (r *realUnit) peek(k int) region { return r.region(r.u.Back.Region(k)) }

func (r *realUnit) drainAll() []Entry {
	return copyEntries(r.u.Path.DrainAll(nil, new([]RegCkpt), new([]uint64)))
}

func (r *realUnit) state() unitState {
	f, p, b := &r.u.Front, &r.u.Path, &r.u.Back
	// The arenas hold exactly the live boundaries' payloads: retiring a
	// boundary retires its payloads.
	var nck, nem int
	for _, bd := range r.u.bd.q.live() {
		nck, nem = nck+int(bd.nckpt), nem+int(bd.nemit)
	}
	if nck != r.u.bd.ckpts.len() || nem != r.u.bd.emits.len() {
		r.t.Fatalf("arenas hold %d checkpoints and %d emits for boundaries carrying %d and %d",
			r.u.bd.ckpts.len(), r.u.bd.emits.len(), nck, nem)
	}
	return unitState{
		Front: r.entries(f.q.live()), Back: r.entries(b.q.live()),
		Staged: append([]RegCkpt(nil), f.staged...), InFlight: p.InFlight(),
		HasRegion: b.marks.len() > 0,
		Counters: unitCounters{
			Allocs: f.Allocs, Merges: f.Merges, Boundary: f.Boundary, ElidedBds: f.ElidedBds, Stalls: f.Stalls,
			WindowHits: p.WindowHits, BackMerges: b.Merges, ScanHits: b.ScanHits, Overflow: b.Overflow,
		},
	}
}
