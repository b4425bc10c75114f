// Command capriinspect examines capri/run-record/v1 provenance records
// written by `caprisim -record-out`, `capribench -audit -record-out` and
// `capricrash -record-out`.
//
// Usage:
//
//	capriinspect summary run.json            # identity, verdict, percentiles, event census
//	capriinspect line 0x1040 run.json        # one cache line's event history
//	capriinspect regions run.json [core]     # per-region commit/drain timeline
//	capriinspect diff a.json b.json          # record-vs-record stat diff
//
// `line` prints the full retained provenance chain of one cache line — every
// store, proxy launch/arrival, writeback, drain write, NVM read, and recovery
// action touching it, in stream order. `regions` reconstructs the region
// timeline (commit → boundary launch → phase-2 drain) from the same stream.
// `diff` compares two records' event censuses and machine statistics, for
// before/after runs of the same workload.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"strconv"

	"capri/internal/audit"
	"capri/internal/fault"
	"capri/internal/machine"
	"capri/internal/stats"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch cmd, args := os.Args[1], os.Args[2:]; cmd {
	case "summary":
		err = runSummary(os.Stdout, args)
	case "line":
		err = runLine(os.Stdout, args)
	case "regions":
		err = runRegions(os.Stdout, args)
	case "diff":
		err = runDiff(os.Stdout, args)
	case "-h", "-help", "--help", "help":
		usage()
	default:
		err = fmt.Errorf("capriinspect: unknown command %q (have summary, line, regions, diff)", cmd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  capriinspect summary <run.json>
  capriinspect line <addr> <run.json>
  capriinspect regions <run.json> [core]
  capriinspect diff <a.json> <b.json>
`)
	os.Exit(2)
}

func runSummary(w io.Writer, args []string) error {
	if len(args) != 1 {
		usage()
	}
	r, err := audit.ReadRunRecord(args[0])
	if err != nil {
		return err
	}
	return summary(w, r)
}

// summary renders a record's identity, audit verdict, fault plan,
// percentiles and event census.
func summary(w io.Writer, r *audit.RunRecord) error {
	fmt.Fprintf(w, "schema       %s\n", r.Schema)
	if r.Name != "" {
		fmt.Fprintf(w, "workload     %s\n", r.Name)
	}
	if r.Fingerprint != "" {
		fmt.Fprintf(w, "fingerprint  %s\n", r.Fingerprint)
	}
	fmt.Fprintf(w, "events       %d total, %d retained, %d dropped from the ring\n",
		r.EventsTotal, r.EventsKept, r.Dropped)
	fmt.Fprintf(w, "digest       %s  (over the complete stream)\n", r.Digest)
	switch {
	case r.Audit == nil || !r.Audit.Enabled:
		fmt.Fprintf(w, "audit        not run\n")
	case r.Audit.Violations == 0:
		fmt.Fprintf(w, "audit        ok: %d events, 0 violations\n", r.Audit.Events)
	default:
		fmt.Fprintf(w, "audit        FAILED: %d violations in %d events\n", r.Audit.Violations, r.Audit.Events)
		fmt.Fprintf(w, "  first rule   %s\n", r.Audit.FirstRule)
		fmt.Fprintf(w, "  first detail %s\n", r.Audit.FirstDetail)
	}
	if len(r.Faults) > 0 {
		plan, err := fault.DecodePlan(r.Faults)
		if err != nil {
			fmt.Fprintf(w, "faults       unreadable plan: %v\n", err)
		} else {
			fmt.Fprintf(w, "faults       %s crash@%d, %d injected (plan seed %d)\n",
				plan.Target.Name(), plan.CrashAt, len(plan.Faults), plan.Seed)
			for _, f := range plan.Faults {
				fmt.Fprintf(w, "  inject       %s\n", f)
			}
		}
	}
	if err := summarizeMetrics(w, r.Metrics); err != nil {
		return err
	}
	events := r.DecodedEvents()
	if len(events) > 0 {
		fmt.Fprintf(w, "cycle span   %d .. %d (retained tail)\n", events[0].Cycle, events[len(events)-1].Cycle)
	}
	fmt.Fprintf(w, "event census (retained tail):\n")
	for k, n := range censusOf(events) {
		if n > 0 {
			fmt.Fprintf(w, "  %-14s %10d\n", audit.Kind(k), n)
		}
	}
	perCoreBreakdown(w, events)
	return nil
}

// perCoreBreakdown prints one row per core: total events plus the columns
// that show how the protocol load was spread — stores, region commits,
// phase-2 drains and their NVM writes, synchronizing stores, and recovery
// redo/undo work. On a multi-core contention run this is where cross-core
// skew (one core draining far more than its peers) becomes visible.
func perCoreBreakdown(w io.Writer, events []audit.Event) {
	type row struct {
		total, stores, commits, drains, drainWr, syncs, recov uint64
	}
	rows := map[int32]*row{}
	for _, e := range events {
		r := rows[e.Core]
		if r == nil {
			r = &row{}
			rows[e.Core] = r
		}
		r.total++
		switch e.Kind {
		case audit.EvStore:
			r.stores++
		case audit.EvCommit:
			r.commits++
		case audit.EvDrain:
			r.drains++
		case audit.EvDrainWrite, audit.EvTornDrainWrite:
			r.drainWr++
		case audit.EvSync:
			r.syncs++
		case audit.EvRecoveryRedoWrite, audit.EvRecoveryRedo, audit.EvRecoveryUndo:
			r.recov++
		}
	}
	if len(rows) < 2 {
		return // single-core runs: the global census already says it all
	}
	cores := make([]int32, 0, len(rows))
	for c := range rows {
		cores = append(cores, c)
	}
	sort.Slice(cores, func(i, j int) bool { return cores[i] < cores[j] })
	fmt.Fprintf(w, "per-core events (retained tail):\n")
	fmt.Fprintf(w, "  %-5s %10s %10s %10s %10s %10s %10s %10s\n",
		"core", "total", "stores", "commits", "drains", "drain-wr", "syncs", "recovery")
	for _, c := range cores {
		r := rows[c]
		fmt.Fprintf(w, "  %-5d %10d %10d %10d %10d %10d %10d %10d\n",
			c, r.total, r.stores, r.commits, r.drains, r.drainWr, r.syncs, r.recov)
	}
}

// summarizeMetrics renders the tail-latency report from the record's
// embedded histogram payload (caprisim -record-out collects it): p50/p99/
// p999 of commit latency and the buffer occupancies. Records without a
// metrics payload (older records, capricrash records) print nothing.
func summarizeMetrics(w io.Writer, raw json.RawMessage) error {
	if len(raw) == 0 {
		return nil
	}
	var m machine.Metrics
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("capriinspect: unreadable metrics payload: %w", err)
	}
	rows := []struct {
		name string
		h    *stats.Hist
	}{
		{"commit latency", &m.CommitLat},
		{"front-end occupancy", &m.FrontOcc},
		{"back-end occupancy", &m.BackOcc},
		{"path in flight", &m.PathInFlight},
		{"WPQ depth", &m.WPQDepth},
		{"drain-bank depth", &m.DrainQueue},
	}
	printed := false
	for _, r := range rows {
		if r.h.Count == 0 {
			continue
		}
		if !printed {
			fmt.Fprintf(w, "percentiles  (power-of-two bucket upper bounds)\n")
			fmt.Fprintf(w, "  %-20s %10s %8s %8s %8s %8s\n", "metric", "samples", "p50", "p99", "p999", "max")
			printed = true
		}
		fmt.Fprintf(w, "  %-20s %10d %8d %8d %8d %8d\n", r.name, r.h.Count,
			r.h.Percentile(50), r.h.Percentile(99), r.h.Percentile(99.9), r.h.Max)
	}
	return nil
}

func censusOf(events []audit.Event) [audit.NumKinds]uint64 {
	var census [audit.NumKinds]uint64
	for _, e := range events {
		census[e.Kind]++
	}
	return census
}

func runLine(w io.Writer, args []string) error {
	if len(args) != 2 {
		usage()
	}
	addr, err := strconv.ParseUint(args[0], 0, 64)
	if err != nil {
		return fmt.Errorf("capriinspect: bad address %q: %w", args[0], err)
	}
	r, err := audit.ReadRunRecord(args[1])
	if err != nil {
		return err
	}
	return lineHistory(w, r, addr)
}

// lineHistory prints every retained event on the cache line of addr.
func lineHistory(w io.Writer, r *audit.RunRecord, addr uint64) error {
	line := addr &^ 63
	n := 0
	for _, e := range r.DecodedEvents() {
		if !e.HasAddr() || e.Line() != line {
			continue
		}
		n++
		fmt.Fprintln(w, e)
	}
	if n == 0 {
		return fmt.Errorf("capriinspect: no retained events touch line %#x (of %d kept; %d dropped from the ring)",
			line, r.EventsKept, r.Dropped)
	}
	fmt.Fprintf(w, "-- %d events on line %#x\n", n, line)
	return nil
}

func runRegions(w io.Writer, args []string) error {
	if len(args) != 1 && len(args) != 2 {
		usage()
	}
	r, err := audit.ReadRunRecord(args[0])
	if err != nil {
		return err
	}
	core := int64(-1)
	if len(args) == 2 {
		c, err := strconv.ParseInt(args[1], 0, 32)
		if err != nil {
			return fmt.Errorf("capriinspect: bad core %q: %w", args[1], err)
		}
		core = c
	}
	return regions(w, r, core)
}

// regions prints the region-lifecycle events of one core (every core when
// core < 0).
func regions(w io.Writer, r *audit.RunRecord, core int64) error {
	n := 0
	for _, e := range r.DecodedEvents() {
		if core >= 0 && int64(e.Core) != core {
			continue
		}
		switch e.Kind {
		case audit.EvCommit, audit.EvDrain, audit.EvCrash,
			audit.EvRecoveryRedo, audit.EvRecoveryUndo, audit.EvRecoveryDone:
			n++
			fmt.Fprintln(w, e)
		case audit.EvLaunch, audit.EvBackArrive:
			if e.Flags.Has(audit.FlagBoundary) {
				n++
				fmt.Fprintln(w, e)
			}
		}
	}
	if n == 0 {
		return fmt.Errorf("capriinspect: no region-lifecycle events retained")
	}
	fmt.Fprintf(w, "-- %d region-lifecycle events\n", n)
	return nil
}

func runDiff(w io.Writer, args []string) error {
	if len(args) != 2 {
		usage()
	}
	a, err := audit.ReadRunRecord(args[0])
	if err != nil {
		return err
	}
	b, err := audit.ReadRunRecord(args[1])
	if err != nil {
		return err
	}
	return diff(w, a, b)
}

// diff compares two records' event streams, fault plans, censuses and
// machine statistics.
func diff(w io.Writer, a, b *audit.RunRecord) error {
	if a.Digest == b.Digest {
		fmt.Fprintf(w, "identical event streams (digest %s)\n", a.Digest)
	} else {
		fmt.Fprintf(w, "event streams differ\n")
	}
	// An injected fault plan is part of a run's identity: two records under
	// different plans are different experiments, not a regression.
	if err := diffPlans(w, a.Faults, b.Faults); err != nil {
		return err
	}
	if a.EventsTotal != b.EventsTotal {
		fmt.Fprintf(w, "events_total  %d -> %d (%+d)\n", a.EventsTotal, b.EventsTotal,
			int64(b.EventsTotal)-int64(a.EventsTotal))
	}
	ca, cb := censusOf(a.DecodedEvents()), censusOf(b.DecodedEvents())
	for k := audit.Kind(0); k < audit.NumKinds; k++ {
		if ca[k] != cb[k] {
			fmt.Fprintf(w, "census %-14s %10d -> %10d (%+d)\n", k, ca[k], cb[k], int64(cb[k])-int64(ca[k]))
		}
	}
	diffs, err := diffStats(a.Stats, b.Stats)
	if err != nil {
		return err
	}
	if len(diffs) == 0 {
		fmt.Fprintf(w, "machine statistics identical\n")
		return nil
	}
	fmt.Fprintf(w, "machine statistics (%d fields differ):\n", len(diffs))
	for _, d := range diffs {
		fmt.Fprintf(w, "  %-24s %14.6g -> %14.6g (%+g)\n", d.path, d.a, d.b, d.b-d.a)
	}
	return nil
}

// diffPlans compares the records' embedded fault plans as run identity.
func diffPlans(w io.Writer, a, b json.RawMessage) error {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	summarize := func(raw json.RawMessage) (string, fault.Plan, error) {
		if len(raw) == 0 {
			return "(no fault plan)", fault.Plan{}, nil
		}
		p, err := fault.DecodePlan(raw)
		if err != nil {
			return "", p, err
		}
		return p.Summary(), p, nil
	}
	sa, pa, err := summarize(a)
	if err != nil {
		return err
	}
	sb, pb, err := summarize(b)
	if err != nil {
		return err
	}
	if reflect.DeepEqual(pa, pb) {
		fmt.Fprintf(w, "identical fault plans (%s)\n", sa)
		return nil
	}
	fmt.Fprintf(w, "fault plans differ — different experiments, not a regression:\n")
	fmt.Fprintf(w, "  a: %s\n", sa)
	fmt.Fprintf(w, "  b: %s\n", sb)
	return nil
}

type statDiff struct {
	path string
	a, b float64
}

// diffStats compares the numeric leaves of two opaque stats payloads by
// dotted path, so capriinspect needs no knowledge of the machine.Stats
// shape and keeps working as counters are added.
func diffStats(a, b json.RawMessage) ([]statDiff, error) {
	if a == nil || b == nil {
		return nil, nil
	}
	var va, vb any
	if err := json.Unmarshal(a, &va); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &vb); err != nil {
		return nil, err
	}
	la, lb := map[string]float64{}, map[string]float64{}
	flatten("", va, la)
	flatten("", vb, lb)
	paths := map[string]bool{}
	for p := range la {
		paths[p] = true
	}
	for p := range lb {
		paths[p] = true
	}
	var out []statDiff
	for p := range paths {
		if la[p] != lb[p] {
			out = append(out, statDiff{p, la[p], lb[p]})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out, nil
}

func flatten(prefix string, v any, out map[string]float64) {
	switch x := v.(type) {
	case float64:
		out[prefix] = x
	case map[string]any:
		for k, val := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			flatten(p, val, out)
		}
	case []any:
		for i, val := range x {
			flatten(fmt.Sprintf("%s[%d]", prefix, i), val, out)
		}
	}
}
