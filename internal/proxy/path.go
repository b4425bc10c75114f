package proxy

// Path models the dedicated, uncacheable proxy data path connecting one
// core's front-end proxy to its back-end buffer in the memory controller
// (paper §3.3). It is a fixed-latency, fixed-bandwidth FIFO pipe: one entry
// departs per `Interval` cycles and arrives `Latency` cycles later. Packets
// in flight are logically retained by the front-end for crash purposes
// (delivery is acknowledged), so the path itself holds no recoverable state.
//
// Each path consults the memory controller's monitoring window (§5.3.2,
// Window) as its entries arrive.
type Path struct {
	Latency  uint64 // cycles from departure to arrival
	Interval uint64 // cycles between departures (bandwidth)

	nextDepart uint64 // earliest cycle the next entry may depart

	// In-flight FIFO: departures add at the tail, deliveries pop the head
	// (arrival times are monotonic, so the deliverable packets are always a
	// prefix). The ring keeps DeliverEach from recopying every still-flying
	// packet on each call — the machine services the path once per
	// instruction, so that copy was the single hottest operation in the
	// whole simulator. It is carved at its in-flight bound (flightCarve).
	q ring[packet]
	// bd is the core's boundary table, which DeliverEach resolves boundary
	// markers in.
	bd *bounds

	// win is the machine's monitoring window, shared by every core's path
	// (NewUnits); nil means none.
	win *Window

	// Stats.
	WindowHits uint64 // this path's arrivals whose valid-bit the window unset
}

type packet struct {
	r       Rec
	arrives uint64
}

// Window is the memory controller's monitoring window (§5.3.2): a dirty
// writeback arriving at the controller registers its address and sequence,
// and any proxy entry for the same address arriving within the worst-case
// path latency whose store sequence is not newer has its redo valid-bit
// unset on arrival. A machine has one memory controller, so it has one
// window, noted once per written-back word and consulted by every core's
// path. The zero value with Latency set is an empty window.
type Window struct {
	Latency uint64 // the proxy path's worst-case latency, in cycles

	// m maps address -> (expiry cycle, writeback seq). Made on the first
	// writeback; nil reads as empty.
	m map[uint64]windowEntry
}

type windowEntry struct {
	expiry uint64
	seq    uint64
}

// Note opens (or refreshes) the window for addr after a dirty writeback with
// sequence seq arrives at the controller at cycle now.
func (w *Window) Note(addr uint64, seq uint64, now uint64) {
	we, ok := w.m[addr]
	if !ok || we.seq < seq || we.expiry < now+w.Latency {
		if w.m == nil {
			w.m = map[uint64]windowEntry{}
		}
		w.m[addr] = windowEntry{expiry: now + w.Latency, seq: seq}
	}
	// Opportunistically prune expired windows to bound memory.
	if len(w.m) > 4096 {
		for a, we := range w.m {
			if we.expiry < now {
				delete(w.m, a)
			}
		}
	}
}

// Len returns the number of live window entries (expired entries that have
// not been pruned yet count — pruning is opportunistic). Observability
// only; the occupancy histogram samples it at boundaries.
func (w *Window) Len() int { return len(w.m) }

// hit reports whether an entry for addr with store sequence seq arriving at
// cycle arrives falls inside a live window whose writeback is not older.
func (w *Window) hit(addr, arrives, seq uint64) bool {
	if len(w.m) == 0 {
		return false
	}
	we, ok := w.m[addr]
	return ok && arrives <= we.expiry && seq <= we.seq
}

// flightCarve is the capacity a path's packet ring is carved at: its
// in-flight bound, the most packets a path can hold — a departure slot opens
// every interval (>= 1) cycles and each packet arrives latency cycles after
// it departs, so at most ceil(latency/interval) are still on the wire when
// the next one departs. The carve is capped at flightCarveMax, so no
// configuration (a crash image's among them) sizes an allocation; a path
// whose bound exceeds the cap grows its ring with real traffic instead.
func flightCarve(latency, interval uint64) int {
	if latency/interval >= flightCarveMax {
		return flightCarveMax
	}
	return int((latency+interval-1)/interval) + 1
}

// SendFrom departs a copy of r at the given cycle (or the earliest bandwidth
// slot after it) and returns the departure cycle actually used.
func (p *Path) SendFrom(r *Rec, now uint64) uint64 {
	depart := max(now, p.nextDepart)
	p.nextDepart = depart + p.Interval
	pk := p.q.add()
	pk.r, pk.arrives = *r, depart+p.Latency
	return depart
}

// InFlight returns the number of entries on the wire.
func (p *Path) InFlight() int { return p.q.len() }

// HeadArrival returns the wire-arrival cycle of the oldest in-flight packet.
// ok is false when nothing is in flight. DeliverEach cannot pop anything before
// this cycle — the machine's service gate is built on it.
func (p *Path) HeadArrival() (uint64, bool) {
	if p.q.len() == 0 {
		return 0, false
	}
	return p.q.front().arrives, true
}

// Backlog reports the earliest cycle at which the path could accept a new
// entry — the machine uses it to model front-end drain pacing.
func (p *Path) Backlog() uint64 { return p.nextDepart }

// DeliverEach pops every record that has arrived by `now`, applying the
// monitoring window to unset stale redo valid-bits, and hands each to fn by
// pointer into the packet storage — valid only for the duration of the call;
// fn must copy whatever outlives it — with its table entry (nil for a data
// record), its wire-arrival cycle and the window's verdict (hit: the window
// unset the redo valid-bit on this delivery). This is the zero-copy arrival
// path: the machine's service loop consumes records straight out of the
// wire buffer.
func (p *Path) DeliverEach(now uint64, fn func(r *Rec, b *Boundary, arrives uint64, hit bool)) {
	for p.q.len() > 0 {
		pk := p.q.front()
		if pk.arrives > now {
			break
		}
		r := &pk.r
		var b *Boundary
		hit := false
		if r.Kind == KindBoundary {
			b = p.bd.at(r.bd)
		} else if p.win != nil && p.win.hit(r.Addr, pk.arrives, r.Seq) {
			r.Valid = false
			p.WindowHits++
			hit = true
		}
		fn(r, b, pk.arrives, hit)
		p.q.drop(1)
	}
}

// DrainAll immediately delivers everything in flight, appending it to dst
// oldest-first as crash-image entries, payloads copied as Unit.Harvest
// copies them (used at crash time: in-flight packets are logically part of
// the front-end's non-volatile contents, so recovery sees them in order). It
// neither applies the monitoring window nor closes it. A boundary it takes
// stays in the core's table until the back end retires a later one.
func (p *Path) DrainAll(dst []Entry, ckpts *[]RegCkpt, emits *[]uint64) []Entry {
	live := p.q.live()
	for i := range live {
		dst = p.bd.appendEntries(dst, []Rec{live[i].r}, ckpts, emits)
	}
	p.q.drop(len(live))
	return dst
}
