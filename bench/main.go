// Command bench is the repository's benchmark. Each run sets up one of four
// workloads (sweep-st, sweep-mt, compile-matrix, crash-audit), then repeats
// identical-shape rounds of cold ops for -seconds, timing every call into a
// public function of a layer from outside and checking every op's output.
// It prints each metric as "workload name value unit" and, last, one JSON
// line with the metrics BENCHMARK.json declares: the end-to-end ones, or
// with -trace 1 the per-layer ones. See README.md.
//
//	go run . -workload sweep-st -seed 1 -seconds 10        (from bench/)
//	go run . -compare setA setB
package main

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// A run sets its workload up at least minSetupReps times, and keeps
// repeating until set-up has taken setupBudget (at most maxSetupReps), so a
// sub-millisecond set-up still gets a steady median. setup_s is the median
// repetition; the last repetition's state is what the rounds measure.
const (
	minSetupReps = 5
	maxSetupReps = 200
	setupBudget  = 250 * time.Millisecond
)

type setupRep struct {
	wall time.Duration
	rec  setupRec
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	rounds   int // exact round count; 0 fills -seconds
	trace    bool
	traceOut string
	small    bool
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run, as -out writes it (one JSON line) and -compare reads it.
type result struct {
	Workload      string                 `json:"workload"`
	Seed          uint64                 `json:"seed"`
	Small         bool                   `json:"small,omitempty"`
	Rounds        int                    `json:"rounds"`
	TracedRounds  int                    `json:"traced_rounds"`
	Shapes        int                    `json:"shapes"` // distinct round shapes the digests cover
	Attempted     int                    `json:"attempted"`
	Failed        int                    `json:"failed"`
	SimDigest     string                 `json:"sim_digest"`
	CompileDigest string                 `json:"compile_digest"`
	Failures      []string               `json:"failures,omitempty"`
	SkippedPoints []string               `json:"skipped_points,omitempty"`
	Metrics       map[string]metricValue `json:"metrics"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(names, ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "seed every input derives from")
	fs.Float64Var(&o.seconds, "seconds", 10, "measure rounds for this long (at least the workload's minimum rounds)")
	fs.IntVar(&o.rounds, "rounds", 0, "run exactly this many rounds instead (in pairs with -trace 1)")
	traceFlag := fs.Int("trace", 0, "1: pair every round with a traced one and report per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "with -trace 1, write the spans as Chrome trace-event JSON to this file")
	fs.BoolVar(&o.small, "small", false, "minimal inputs (smoke test)")
	out := fs.String("out", "", "write the full result as one JSON line to this file")
	specPath := fs.String("spec", "BENCHMARK.json", "metric declarations")
	compare := fs.Bool("compare", false, "compare two result sets (files of JSON lines, or directories of them)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two result sets")
		}
		return compareSets(spec, fs.Arg(0), fs.Arg(1), stdout)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	o.trace = *traceFlag == 1
	if o.traceOut != "" && !o.trace {
		return fmt.Errorf("-trace-out needs -trace 1")
	}
	res, err := run(o, spec)
	if err != nil {
		return err
	}
	if *out != "" {
		b, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return report(stdout, spec, res, o.trace)
}

// run sets the workload up (see minSetupReps) and measures its rounds.
func run(o options, spec *benchSpec) (*result, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if o.trace {
		tr = &tracer{epoch: time.Now()}
	}
	var reps []setupRep
	var pr *prepared
	var spent time.Duration
	for len(reps) < minSetupReps || spent < setupBudget && len(reps) < maxSetupReps {
		runtime.GC()
		rep := setupRep{rec: setupRec{tr: tr}}
		t := time.Now()
		pr, err = w.setup(o.seed, o.small, &rep.rec)
		rep.wall = time.Since(t)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		reps = append(reps, rep)
		spent += rep.wall
	}

	// With -trace 1 every round index runs twice, untraced then traced, so
	// the tracing overhead compares rounds of the same shape.
	passes, minRounds := 1, w.minRounds
	if o.trace {
		passes, minRounds = 2, (w.minRounds+1)/2
	}
	res := &result{Workload: w.name, Seed: o.seed, Small: o.small, SkippedPoints: pr.skipped}
	var rounds []*round
	simByShape := map[int][]byte{}
	compByShape := map[int][]byte{}
	start := time.Now()
	for idx := 0; ; idx++ {
		if o.rounds > 0 && idx >= o.rounds ||
			o.rounds == 0 && idx >= minRounds && time.Since(start).Seconds() >= o.seconds {
			break
		}
		shape := idx % pr.shapes
		for pass := 0; pass < passes; pass++ {
			r := &round{index: idx, traced: pass == 1}
			if r.traced {
				r.tr = tr
			}
			measure(pr, r, shape)
			rounds = append(rounds, r)
			if !sameDigest(simByShape, shape, r.simDigest) || !sameDigest(compByShape, shape, r.compileDigest) {
				r.failed++
				r.failures = append(r.failures, fmt.Sprintf("round %d: digest differs from an earlier round of the same shape", idx))
			}
			res.Attempted += r.ops
			res.Failed += r.failed
			res.Failures = append(res.Failures, r.failures...)
			if r.traced {
				res.TracedRounds++
			} else {
				res.Rounds++
			}
		}
	}
	res.Shapes = len(simByShape)
	var sims [][32]byte
	comps := append([][32]byte(nil), pr.compileFP...)
	for k := 0; k < res.Shapes; k++ {
		if d := simByShape[k]; d != nil {
			sims = append(sims, [32]byte(d))
		}
		if d := compByShape[k]; d != nil {
			comps = append(comps, [32]byte(d))
		}
	}
	res.SimDigest = hex.EncodeToString(combine(sims))
	res.CompileDigest = hex.EncodeToString(combine(comps))

	if tr != nil && o.traceOut != "" {
		if err := tr.write(o.traceOut); err != nil {
			return nil, err
		}
	}
	res.Metrics = map[string]metricValue{}
	for name, v := range runMetrics(rounds, reps) {
		m, ok := spec.lookup(name)
		if !ok || !metricName.MatchString(name) {
			return nil, fmt.Errorf("metric %q is not declared in BENCHMARK.json", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s = %v", name, v)
		}
		res.Metrics[name] = metricValue{v, m.Unit}
	}
	return res, nil
}

// measure runs one round with the heap collected first, so its allocation
// and GC counters are its own.
func measure(pr *prepared, r *round, shape int) {
	runtime.GC()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t := time.Now()
	pr.round(r, shape)
	r.wall = time.Since(t)
	runtime.ReadMemStats(&b)
	r.mallocs = b.Mallocs - a.Mallocs
	r.allocBytes = b.TotalAlloc - a.TotalAlloc
	r.gcCycles = b.NumGC - a.NumGC
	r.gcPause = time.Duration(b.PauseTotalNs - a.PauseTotalNs)
}

// sameDigest records the first digest of each shape and reports whether d
// matches it.
func sameDigest(seen map[int][]byte, shape int, d []byte) bool {
	first, ok := seen[shape]
	if !ok {
		seen[shape] = d
		return true
	}
	return string(first) == string(d)
}

// report prints every metric, the digests and the failures, then the
// summary line with the metrics BENCHMARK.json declares for this mode.
func report(w io.Writer, spec *benchSpec, res *result, traced bool) error {
	declared := spec.EndToEnd
	if traced {
		declared = spec.PerLayer
	}
	sum := summary{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	for _, m := range declared {
		v, ok := res.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("declared metric %s was not measured", m.Name)
		}
		sum.Metrics[m.Name] = v
	}
	for _, list := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
		for _, m := range list {
			if v, ok := res.Metrics[m.Name]; ok {
				fmt.Fprintf(w, "%s %s %s %s\n", res.Workload, m.Name, strconv.FormatFloat(v.Value, 'g', -1, 64), v.Unit)
			}
		}
	}
	if paper, ok := paperOverhead[res.Workload]; ok {
		fmt.Fprintf(w, "# %s capri_overhead_pct: paper §6.2 reports %s; the model is not validated against hardware\n", res.Workload, paper)
	}
	fmt.Fprintf(w, "# %s rounds=%d traced_rounds=%d shapes=%d sim_digest=%s compile_digest=%s\n",
		res.Workload, res.Rounds, res.TracedRounds, res.Shapes, res.SimDigest, res.CompileDigest)
	for _, f := range res.Failures {
		fmt.Fprintf(os.Stderr, "FAILED %s %s\n", res.Workload, f)
	}
	b, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// paperOverhead is the paper's §6.2 geomean overhead at threshold 256 for
// each sweep's suites.
var paperOverhead = map[string]string{
	"sweep-st": "≈6.0% for SPEC+STAMP (0% and 12.4%)",
	"sweep-mt": "9.1% for Splash-3",
}
