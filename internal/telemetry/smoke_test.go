package telemetry_test

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"capri/internal/compile"
	"capri/internal/machine"
	"capri/internal/progen"
	"capri/internal/sweep"
	"capri/internal/telemetry"
)

// parseOpenMetrics reads a text exposition into a name→value map and
// reports whether the page was terminated by # EOF.
func parseOpenMetrics(t *testing.T, r io.Reader) (map[string]float64, bool) {
	t.Helper()
	vals := map[string]float64{}
	eof := false
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "# EOF" {
			eof = true
			continue
		}
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		vals[name] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return vals, eof
}

// TestTelemetrySmoke is the end-to-end exposition check `make
// telemetry-smoke` runs: start a bus on an ephemeral port with a JSONL
// heartbeat, push real work through the machine and sweep hot paths,
// scrape /metrics over HTTP, and check the families, the counts, and the
// heartbeat stream.
func TestTelemetrySmoke(t *testing.T) {
	hbPath := filepath.Join(t.TempDir(), "hb.jsonl")
	bus, err := telemetry.Start(telemetry.Options{
		Listen:        "127.0.0.1:0",
		HeartbeatPath: hbPath,
		Interval:      10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bus.Stop()
	if bus.Addr() == "" {
		t.Fatal("bus with a listener reported no address")
	}

	// Real machine work: a small generated program runs to completion with
	// telemetry armed, so the run's exit publish lands in the snapshot.
	src := progen.Generate(7, progen.Config{Funcs: 2, MaxDepth: 2, MaxStmts: 4, MaxLoopTrip: 4, Threads: 1})
	res, err := compile.Compile(src, compile.OptionsForLevel(compile.LevelLICM, 64))
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.L2Size = 256 << 10
	cfg.DRAMSize = 1 << 20
	m, err := machine.New(res.Program, cfg)
	if err != nil {
		t.Fatal(err)
	}
	runsBefore := telemetry.Machines.Runs.Load()
	cyclesBefore := telemetry.Machines.Cycles.Load()
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// Real sweep work: three trivial units through the orchestrator.
	doneBefore := telemetry.Sweeps.UnitsDone.Load()
	if err := sweep.Run(2, 3, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + bus.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Errorf("scrape content type %q, want %q", ct, telemetry.ContentType)
	}
	vals, eof := parseOpenMetrics(t, resp.Body)
	if !eof {
		t.Error("scrape not terminated by # EOF")
	}
	for _, fam := range []string{
		"capri_machine_active",
		"capri_machine_runs_total",
		"capri_machine_cycles_total",
		"capri_machine_instret_total",
		"capri_machine_front_occupancy",
		"capri_machine_wpq_depth",
		"capri_machine_drain_queue",
		"capri_sweep_units_planned_total",
		"capri_sweep_units_done_total",
		"capri_sweep_inflight",
		"capri_campaign_trials_total",
		"capri_campaign_violations_total",
		"capri_compile_cache_hits_total",
		"capri_compile_cache_misses_total",
	} {
		if _, ok := vals[fam]; !ok {
			t.Errorf("scrape missing family %s", fam)
		}
	}
	if got := vals["capri_machine_runs_total"]; got < float64(runsBefore)+1 {
		t.Errorf("machine run not counted: runs_total %v, was %d before", got, runsBefore)
	}
	if got := vals["capri_machine_cycles_total"]; got <= float64(cyclesBefore) {
		t.Errorf("machine cycles not published: cycles_total %v, was %d before", got, cyclesBefore)
	}
	if got := vals["capri_sweep_units_done_total"]; got < float64(doneBefore)+3 {
		t.Errorf("sweep units not counted: units_done_total %v, was %d before", got, doneBefore)
	}

	// Stop flushes a final heartbeat; every line must be valid JSON with
	// the timestamp and the flat metrics map.
	bus.Stop()
	hb, err := os.ReadFile(hbPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(hb)), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("no heartbeat lines written")
	}
	for i, line := range lines {
		var rec struct {
			TS      string             `json:"ts"`
			Metrics map[string]float64 `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("heartbeat line %d not JSON: %v\n%s", i, err, line)
		}
		if _, err := time.Parse(time.RFC3339Nano, rec.TS); err != nil {
			t.Errorf("heartbeat line %d timestamp: %v", i, err)
		}
		if len(rec.Metrics) == 0 {
			t.Errorf("heartbeat line %d has no metrics", i)
		}
	}
	// The final (post-Stop) heartbeat carries the machine run.
	var last struct {
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Metrics["capri_machine_runs_total"] < float64(runsBefore)+1 {
		t.Errorf("final heartbeat missing the machine run: %v", last.Metrics["capri_machine_runs_total"])
	}
}
