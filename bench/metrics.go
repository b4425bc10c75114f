package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"syscall"
	"time"

	"capri/internal/compile"
	"capri/internal/machine"
	"capri/internal/stats"
)

// specMetric is one metric declaration of BENCHMARK.json.
type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the one place metrics, units and bounds are
// declared.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// lookup returns the declaration of name.
func (s *benchSpec) lookup(name string) (specMetric, bool) {
	for _, list := range [][]specMetric{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return specMetric{}, false
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// traceOnly metrics exist only for traced rounds.
func traceOnly(name string) bool {
	return strings.HasSuffix(name, ".self_ms") || strings.HasSuffix(name, ".self_pct") ||
		name == "bench.unattributed_pct" || name == "audit.tap_ns_per_event"
}

// roundMetrics derives one round's metrics from its timings and counters.
// Rates are per thousand retired simulated instructions ("kinst").
func roundMetrics(r *round) map[string]float64 {
	s := &r.sim.m
	kinst := float64(s.Instret) / 1000
	perK := func(v uint64) float64 { return ratio(float64(v), kinst) }
	ops := float64(r.ops)
	out := map[string]float64{
		"round_s":        r.wall.Seconds(),
		"mallocs_per_op": ratio(float64(r.mallocs), ops),

		"compile.verify_ms":      float64(r.sim.comp.verifyNS) / 1e6,
		"compile.ckpts_inserted": float64(r.sim.comp.inserted),
		"compile.ckpts_pruned":   float64(r.sim.comp.pruned),
		"compile.ckpts_hoisted":  float64(r.sim.comp.hoisted),
		"compile.loops_unrolled": float64(r.sim.comp.unrolled),
		"compile.static_insts":   float64(r.sim.comp.staticInsts),

		"machine.run.ns_per_inst":           ratio(float64(r.busy[layerRun]), float64(s.Instret)),
		"sim_minst_per_s":                   ratio(float64(s.Instret)/1e6, r.busy[layerRun].Seconds()),
		"machine.instret":                   float64(s.Instret),
		"machine.steps_per_inst":            ratio(float64(s.Steps), float64(s.Instret)),
		"machine.decode.blocks":             float64(s.DecodeBlocks),
		"machine.decode.hit_ratio":          ratio(float64(s.DecodeHits), float64(s.DecodeHits+s.DecodeBlocks)),
		"machine.decode.fused":              float64(s.DecodeFused),
		"machine.sched.queue_ops_per_kinst": perK(s.SchedQueueOps),
		"machine.cycles_per_kinst":          perK(s.Cycles),
		"machine.stall_cycles_per_kinst":    perK(s.StallCycles),
		"cache.l1_miss_ratio":               ratio(float64(s.L1Misses), float64(s.L1Hits+s.L1Misses)),
		"cache.l2_miss_ratio":               ratio(float64(s.L2Misses), float64(s.L2Hits+s.L2Misses)),
		"cache.dram_miss_ratio":             ratio(float64(s.DRAMMisses), float64(s.DRAMHits+s.DRAMMisses)),
		"mem.nvm_writes_per_kinst":          perK(s.NVMWrites),
		"mem.nvm_word_writes_per_kinst":     perK(s.NVMWordWrites),
		"mem.nvm_stale_skip_ratio":          ratio(float64(s.NVMStaleSkips), float64(s.NVMWordWrites+s.NVMStaleSkips)),
		"proxy.front_allocs_per_kinst":      perK(s.FrontAllocs),
		"proxy.front_merge_ratio":           ratio(float64(s.FrontMerges), float64(s.FrontAllocs+s.FrontMerges)),
		"proxy.front_stalls":                float64(s.FrontStalls),
		"proxy.boundary_entries":            float64(s.BoundaryEntries),
		"proxy.elided_ratio":                ratio(float64(s.ElidedBds), float64(s.ElidedBds+s.BoundaryEntries)),
		"proxy.scan_hits":                   float64(s.ScanHits),
		"proxy.window_hits":                 float64(s.WindowHits),
		"proxy.redo_skipped":                float64(s.RedoSkipped),
		"machine.recover.regions_redone":    float64(r.sim.rep.RegionsRedone),
		"machine.recover.entries_redone":    float64(r.sim.rep.EntriesRedone),
		"machine.recover.entries_undone":    float64(r.sim.rep.EntriesUndone),
		"machine.recover.slices_executed":   float64(r.sim.rep.SlicesExecuted),
		"audit.events_per_op":               ratio(float64(r.sim.events), ops),
		"audit.violations":                  float64(r.sim.violations),
		"capri_overhead_pct":                r.overheadPct,
		"fail_ratio":                        ratio(float64(r.failed), ops),
		"go.gc_cycles":                      float64(r.gcCycles),
		"go.gc_pause_ms":                    ms(r.gcPause),
		"go.alloc_mb_per_op":                ratio(float64(r.allocBytes)/(1<<20), ops),
		"machine.run.calls":                 float64(r.calls[layerRun]),
		"machine.run.busy_ms":               ms(r.busy[layerRun]),
		"compile.calls":                     float64(r.calls[layerCompile]),
		"compile.busy_ms":                   ms(r.busy[layerCompile]),
		"machine.new.calls":                 float64(r.calls[layerNew]),
		"machine.new.busy_ms":               ms(r.busy[layerNew]),
		"machine.crash.calls":               float64(r.calls[layerCrash]),
		"machine.crash.busy_ms":             ms(r.busy[layerCrash]),
		"machine.recover.calls":             float64(r.calls[layerRecover]),
		"machine.recover.busy_ms":           ms(r.busy[layerRecover]),
		"bench.verify.busy_ms":              ms(r.busy[layerVerify]),
	}
	for _, n := range compile.AllPassNames {
		out["compile.pass."+n+".ms"] = float64(r.sim.comp.passNS[n]) / 1e6
	}
	for c := machine.CycleCause(0); c < machine.NumCycleCauses; c++ {
		out["machine.cycles."+c.String()+"_per_kinst"] = perK(s.CycleBy[c])
	}
	if r.tr != nil {
		for l := layer(0); l < numLayers; l++ {
			out[layerNames[l]+".self_ms"] = ms(r.self[l])
			out[layerNames[l]+".self_pct"] = 100 * ratio(float64(r.self[l]), float64(r.opTime))
		}
		out["bench.unattributed_pct"] = 100 * ratio(float64(r.opTime-r.spanTime), float64(r.opTime))
		out["audit.tap_ns_per_event"] = ratio(float64(r.tapTime), float64(r.tapEvents))
	}
	return out
}

// percentile returns the nearest-rank p-th percentile of ds, in ms.
func percentile(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return ms(s[i])
}

// runMetrics folds the rounds and set-up repetitions of one run into its
// metrics: the median over untraced rounds (traced rounds for the
// trace-only metrics), latency percentiles pooled over every untraced op
// or call, and the median set-up repetition.
func runMetrics(rounds []*round, setups []setupRep) map[string]float64 {
	var plain, traced []map[string]float64
	var opLat, compLat, recLat []time.Duration
	var plainWall, tracedWall []float64
	for _, r := range rounds {
		m := roundMetrics(r)
		if r.traced {
			traced = append(traced, m)
			tracedWall = append(tracedWall, r.wall.Seconds())
			continue
		}
		plain = append(plain, m)
		plainWall = append(plainWall, r.wall.Seconds())
		opLat = append(opLat, r.opLat...)
		compLat = append(compLat, r.callLat[layerCompile]...)
		recLat = append(recLat, r.callLat[layerRecover]...)
	}
	out := map[string]float64{}
	medianOf := func(maps []map[string]float64, keep func(string) bool) {
		if len(maps) == 0 {
			return
		}
		for k := range maps[0] {
			if !keep(k) {
				continue
			}
			vs := make([]float64, len(maps))
			for i, m := range maps {
				vs[i] = m[k]
			}
			out[k] = stats.Median(vs)
		}
	}
	medianOf(plain, func(k string) bool { return !traceOnly(k) })
	medianOf(traced, traceOnly)
	if len(traced) > 0 {
		out["bench.trace_overhead_pct"] = 100 * (ratio(stats.Median(tracedWall), stats.Median(plainWall)) - 1)
	}

	out["op_ms_p50"] = percentile(opLat, 50)
	out["op_ms_p90"] = percentile(opLat, 90)
	out["compile_ms_p50"] = percentile(compLat, 50)
	out["compile_ms_p99"] = percentile(compLat, 99)
	out["recover_ms_p50"] = percentile(recLat, 50)
	out["recover_ms_p99"] = percentile(recLat, 99)

	var total []float64
	var busy [numSetupLayers][]float64
	for _, s := range setups {
		total = append(total, s.wall.Seconds())
		for l := range busy {
			busy[l] = append(busy[l], ms(s.rec.busy[l]))
		}
	}
	out["setup_s"] = stats.Median(total)
	for l, vs := range busy {
		out[setupLayerNames[l]+"_ms"] = stats.Median(vs)
	}

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		out["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return out
}
