package trace

import (
	"encoding/json"
	"strings"
	"testing"

	"capri/internal/audit"
	"capri/internal/compile"
	"capri/internal/machine"
	"capri/internal/progen"
)

// TestWriteChromeGolden locks the exporter's byte-level output for a trace
// that exercises every event kind. The format is consumed by external tools
// (Perfetto, chrome://tracing), so accidental drift matters.
func TestWriteChromeGolden(t *testing.T) {
	events := []audit.Event{
		{Kind: audit.EvCommit, Core: 0, Cycle: 10, Region: 1},
		{Kind: audit.EvWriteback, Core: 1, Cycle: 15, Addr: 0x1040},
		{Kind: audit.EvStall, Core: 0, Cycle: 18},
		{Kind: audit.EvDrain, Core: 0, Cycle: 30, Region: 1, Val: 0x1040, Val2: 0x1080, Count: 3},
		{Kind: audit.EvCommit, Core: 0, Cycle: 35, Region: 2},
		{Kind: audit.EvDrain, Core: 0, Cycle: 38, Region: 2}, // data-free marker
		{Kind: audit.EvCrash, Cycle: 40},
		{Kind: audit.EvRecoveryDone, Count: 2},
	}
	const want = `{"displayTimeUnit":"ms","traceEvents":[
{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"core 0"}},
{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":1,"args":{"name":"core 1"}},
{"name":"region","cat":"region","ph":"b","ts":10,"pid":0,"tid":0,"id":"c0-r1","args":{"region":1}},
{"name":"writeback","cat":"mem","ph":"i","ts":15,"pid":0,"tid":1,"s":"t","args":{"addr":"0x1040"}},
{"name":"front-stall","cat":"proxy","ph":"i","ts":18,"pid":0,"tid":0,"s":"t"},
{"name":"region","cat":"region","ph":"e","ts":30,"pid":0,"tid":0,"id":"c0-r1","args":{"addr":"0x1040","addr2":"0x1080","entries":3}},
{"name":"region","cat":"region","ph":"b","ts":35,"pid":0,"tid":0,"id":"c0-r2","args":{"region":2}},
{"name":"region","cat":"region","ph":"e","ts":38,"pid":0,"tid":0,"id":"c0-r2"},
{"name":"crash","cat":"power","ph":"i","ts":40,"pid":0,"tid":0,"s":"g"},
{"name":"recovery","cat":"power","ph":"i","ts":40,"pid":0,"tid":0,"s":"g","args":{"cores":2}}
]}
`
	var sb strings.Builder
	if err := WriteChrome(&sb, events); err != nil {
		t.Fatal(err)
	}
	if sb.String() != want {
		t.Errorf("chrome output drifted:\n got: %s\nwant: %s", sb.String(), want)
	}
}

// TestWriteChromeMachineRun exports a real machine run and checks the result
// is well-formed: valid JSON, every async begin ("b") paired or still open,
// and every end ("e") preceded by its begin.
func TestWriteChromeMachineRun(t *testing.T) {
	gcfg := progen.DefaultConfig()
	gcfg.Threads = 2
	p := progen.Generate(13, gcfg)
	res, err := compile.Compile(p, compile.OptionsForLevel(compile.LevelLICM, 16))
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.Cores = 2
	cfg.Threshold = 16
	cfg.L2Size = 256 << 10
	cfg.DRAMSize = 1 << 20
	m, err := machine.New(res.Program, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	m.SetTap(rec)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := rec.WriteChromeTo(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
			TS    uint64 `json:"ts"`
			TID   int    `json:"tid"`
			ID    string `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events exported")
	}
	open := map[string]bool{}
	begins, ends := 0, 0
	for _, e := range doc.TraceEvents {
		switch e.Phase {
		case "b":
			if open[e.ID] {
				t.Errorf("span %s begun twice", e.ID)
			}
			open[e.ID] = true
			begins++
		case "e":
			if !open[e.ID] {
				t.Errorf("span %s ended without begin", e.ID)
			}
			delete(open, e.ID)
			ends++
		}
	}
	if begins == 0 || ends == 0 {
		t.Errorf("no region spans exported (b=%d e=%d)", begins, ends)
	}
	// The still-open spans are exactly the elided boundaries (committed,
	// never drained).
	if got, want := len(open), int(m.Stats().ElidedBds); got != want {
		t.Errorf("%d unclosed spans, want %d (elided boundaries)", got, want)
	}
}

// TestWriteChromeMonotoneAcrossCrashes crashes a real run, recovers it into
// the same recorder — once directly and once through a nested crash during
// recovery — and runs it to the end. A recovered machine's clock restarts at
// 0, so without the exporter's per-crash offset the recovered run would be
// drawn over the crashed one. Within one machine's run the timestamps need
// not be sorted (a drain is tapped when it completes, at its own cycle), but
// across a crash they are: every event before a crash is at or before it,
// its recovery instant at it, and every event after it at or after it.
func TestWriteChromeMonotoneAcrossCrashes(t *testing.T) {
	gcfg := progen.DefaultConfig()
	gcfg.Threads = 2
	res, err := compile.Compile(progen.Generate(13, gcfg), compile.OptionsForLevel(compile.LevelLICM, 16))
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.Cores = 2
	cfg.Threshold = 16
	cfg.L2Size = 256 << 10
	cfg.DRAMSize = 1 << 20
	ref, err := machine.New(res.Program, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	for _, nested := range []bool{false, true} {
		m, err := machine.New(res.Program, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := NewRecorder()
		m.SetTap(rec)
		if err := m.RunUntil(ref.Instret() / 2); err != nil {
			t.Fatal(err)
		}
		img, err := m.Crash()
		if err != nil {
			t.Fatal(err)
		}
		if nested {
			_, _, img, err = machine.RecoverInterrupted(img, rec, 1)
			if err != nil || img == nil {
				t.Fatalf("nested crash: image %v, err %v", img != nil, err)
			}
		}
		r, _, err := machine.RecoverInstrumented(img, nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Run(); err != nil {
			t.Fatal(err)
		}
		if got, want := countKind(rec, audit.EvCrash), map[bool]int{false: 1, true: 2}[nested]; got != want {
			t.Fatalf("nested=%v: %d crash events, want %d", nested, got, want)
		}

		var sb strings.Builder
		if err := rec.WriteChromeTo(&sb); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name  string `json:"name"`
				Phase string `json:"ph"`
				TS    uint64 `json:"ts"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
			t.Fatalf("invalid JSON: %v", err)
		}
		var crashTS, latest uint64 // latest: the largest ts so far
		after := 0                 // events after the last crash
		for _, e := range doc.TraceEvents {
			if e.Phase == "M" {
				continue
			}
			switch e.Name {
			case "crash":
				if e.TS < latest {
					t.Errorf("nested=%v: crash at ts %d, an earlier event at %d", nested, e.TS, latest)
				}
				crashTS, after = e.TS, 0
			case "recovery":
				if e.TS != crashTS {
					t.Errorf("nested=%v: recovery at ts %d, its crash at %d", nested, e.TS, crashTS)
				}
			default:
				if e.TS < crashTS {
					t.Errorf("nested=%v: %s at ts %d precedes the crash at %d", nested, e.Name, e.TS, crashTS)
				}
				after++
			}
			latest = max(latest, e.TS)
		}
		if crashTS == 0 || after == 0 {
			t.Errorf("nested=%v: crash at ts %d with %d recovered events: nothing tested", nested, crashTS, after)
		}
	}
}
