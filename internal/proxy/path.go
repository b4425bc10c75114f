package proxy

// Path models the dedicated, uncacheable proxy data path connecting one
// core's front-end proxy to its back-end buffer in the memory controller
// (paper §3.3). It is a fixed-latency, fixed-bandwidth FIFO pipe: one entry
// departs per `Interval` cycles and arrives `Latency` cycles later. Packets
// in flight are logically retained by the front-end for crash purposes
// (delivery is acknowledged), so the path itself holds no recoverable state.
//
// The memory controller's monitoring window (§5.3.2) lives here: a dirty
// writeback arriving at the controller registers its address and sequence;
// any entry for the same address arriving within the worst-case path latency
// whose store sequence is not newer has its redo valid-bit unset on arrival.
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

	// Monitoring window: address -> (expiry cycle, writeback seq). Made on
	// the first writeback; nil reads as empty.
	window map[uint64]windowEntry

	// Stats.
	Sent       uint64
	Delivered  uint64
	WindowHits uint64
	WindowAdds uint64
}

type packet struct {
	e       Entry
	arrives uint64
}

type windowEntry struct {
	expiry uint64
	seq    uint64
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

// Send departs an entry at the given cycle (or the earliest bandwidth slot
// after it) and returns the departure cycle actually used.
func (p *Path) Send(e Entry, now uint64) uint64 { return p.SendFrom(&e, now) }

// SendFrom is Send without the by-value argument copy: the entry is copied
// exactly once, straight into the in-flight packet (Entry is large, and the
// drain loop runs once per proxy entry the whole simulation moves).
func (p *Path) SendFrom(e *Entry, now uint64) uint64 {
	depart := now
	if p.nextDepart > depart {
		depart = p.nextDepart
	}
	p.nextDepart = depart + p.Interval
	pk := p.q.add()
	pk.e, pk.arrives = *e, depart+p.Latency
	p.Sent++
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

// WindowLen returns the number of live monitoring-window entries (expired
// entries that have not been pruned yet count — pruning is opportunistic).
// Observability only; the occupancy histogram samples it at boundaries.
func (p *Path) WindowLen() int { return len(p.window) }

// Backlog reports the earliest cycle at which the path could accept a new
// entry — the machine uses it to model front-end drain pacing.
func (p *Path) Backlog() uint64 { return p.nextDepart }

// DeliverEach pops every entry that has arrived by `now`, applying the
// monitoring window to unset stale redo valid-bits, and hands each to fn by
// pointer into the packet storage — valid only for the duration of the call;
// fn must copy whatever outlives it — with its wire-arrival cycle and the
// window's verdict (hit: the window unset the redo valid-bit on this
// delivery). This is the zero-copy arrival path: the machine's service loop
// consumes entries straight out of the wire buffer.
func (p *Path) DeliverEach(now uint64, fn func(e *Entry, arrives uint64, hit bool)) {
	for p.q.len() > 0 {
		pk := p.q.front()
		if pk.arrives > now {
			break
		}
		e := &pk.e
		hit := false
		if e.Kind == KindData && len(p.window) > 0 {
			if w, ok := p.window[e.Addr]; ok && pk.arrives <= w.expiry && e.Seq <= w.seq {
				e.Valid = false
				p.WindowHits++
				hit = true
			}
		}
		p.Delivered++
		fn(e, pk.arrives, hit)
		e.release()
		p.q.drop(1)
	}
}

// NoteWriteback opens (or refreshes) the monitoring window for addr after a
// dirty writeback with sequence seq arrives at the controller at cycle now.
func (p *Path) NoteWriteback(addr uint64, seq uint64, now uint64) {
	w, ok := p.window[addr]
	if !ok || w.seq < seq || w.expiry < now+p.Latency {
		if p.window == nil {
			p.window = map[uint64]windowEntry{}
		}
		p.window[addr] = windowEntry{expiry: now + p.Latency, seq: seq}
		p.WindowAdds++
	}
	// Opportunistically prune expired windows to bound memory.
	if len(p.window) > 4096 {
		for a, we := range p.window {
			if we.expiry < now {
				delete(p.window, a)
			}
		}
	}
}

// DrainAll immediately delivers everything in flight, appending it to dst
// oldest-first (used at crash time: in-flight packets are logically part of
// the front-end's non-volatile contents, so recovery sees them in order). It
// neither applies the monitoring window nor closes it.
func (p *Path) DrainAll(dst []Entry) []Entry {
	live := p.q.live()
	for i := range live {
		dst = append(dst, live[i].e)
		live[i].e.release()
	}
	p.q.drop(len(live))
	return dst
}
