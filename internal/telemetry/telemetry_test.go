package telemetry

import (
	"net/http/httptest"
	"strings"
	"testing"
)

func TestRegistryGatherSortsByName(t *testing.T) {
	r := &Registry{}
	r.Register(Func(func(dst []Metric) []Metric {
		return append(dst,
			Metric{Name: "zzz", Kind: Gauge, Value: 1},
			Metric{Name: "aaa", Kind: Counter, Value: 2},
		)
	}))
	ms := r.Gather()
	if len(ms) != 2 || ms[0].Name != "aaa" || ms[1].Name != "zzz" {
		t.Fatalf("gather not sorted: %+v", ms)
	}
}

func TestWriteOpenMetrics(t *testing.T) {
	var sb strings.Builder
	err := WriteOpenMetrics(&sb, []Metric{
		{Name: "capri_runs", Help: "Completed runs.", Kind: Counter, Value: 3},
		{Name: "capri_occ", Help: "Live \\ multi\nline", Kind: Gauge, Value: 7.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{
		"# TYPE capri_runs counter\n",
		"# HELP capri_runs Completed runs.\n",
		"capri_runs_total 3\n", // counters carry the _total sample suffix
		"# TYPE capri_occ gauge\n",
		"capri_occ 7.5\n",                     // gauges do not
		"# HELP capri_occ Live \\\\ multi\\n", // help text escaped per OpenMetrics
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q:\n%s", want, got)
		}
	}
	if !strings.HasSuffix(got, "# EOF\n") {
		t.Errorf("exposition must end with # EOF:\n%s", got)
	}
}

func TestHandlerServesOpenMetrics(t *testing.T) {
	r := NewRegistry()
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != ContentType {
		t.Errorf("content type %q, want %q", ct, ContentType)
	}
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	for _, fam := range []string{
		"capri_machine_cycles_total",
		"capri_sweep_units_done_total",
		"capri_campaign_trials_total",
		"capri_compile_cache_hits_total",
	} {
		if !strings.Contains(body, fam) {
			t.Errorf("default registry exposition missing %s:\n%s", fam, body)
		}
	}
}

func TestArming(t *testing.T) {
	DisableMachine()
	if ArmedMachine() != nil {
		t.Fatal("disarmed telemetry returned a snapshot")
	}
	EnableMachine()
	defer DisableMachine()
	if ArmedMachine() != Machines {
		t.Fatal("arming must expose the global Machines snapshot")
	}
}

func TestStartDisabledReturnsNilBus(t *testing.T) {
	DisableMachine()
	b, err := Start(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if b != nil {
		t.Fatalf("both outputs empty must return a nil bus, got %+v", b)
	}
	// The nil bus is safe to use and must not have armed anything.
	b.Stop()
	if b.Addr() != "" {
		t.Error("nil bus reported an address")
	}
	if ArmedMachine() != nil {
		t.Error("disabled Start armed machine telemetry")
	}
}

func TestPerCoreDrainGauges(t *testing.T) {
	// A fresh snapshot exposes no per-core families: single-core and idle
	// processes pay no scrape noise for the multi-core breakdown.
	mt := &MachineTelemetry{}
	base := len(mt.Collect(nil))
	mt.NoteCores(4)
	ms := mt.Collect(nil)
	if len(ms) != base+4 {
		t.Fatalf("4-core snapshot exposes %d families, want %d", len(ms), base+4)
	}
	mt.DrainQueueCore[2].Add(7)
	found := false
	for _, m := range mt.Collect(nil) {
		if m.Name == "capri_machine_drain_queue_core02" {
			found = true
			if m.Kind != Gauge || m.Value != 7 {
				t.Errorf("core02 gauge = %+v, want gauge 7", m)
			}
		}
	}
	if !found {
		t.Error("capri_machine_drain_queue_core02 missing from exposition")
	}
	// The high-water mark is monotone and clamped: a later 2-core machine
	// must not hide the 4-core families, and absurd counts fold.
	mt.NoteCores(2)
	if n := len(mt.Collect(nil)); n != base+4 {
		t.Errorf("high-water regressed: %d families, want %d", n, base+4)
	}
	mt.NoteCores(1 << 20)
	if n := len(mt.Collect(nil)); n != base+MaxCoreGauges {
		t.Errorf("unclamped core count: %d families, want %d", n, base+MaxCoreGauges)
	}
}
