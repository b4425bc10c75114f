package trace

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"capri/internal/compile"
	"capri/internal/machine"
	"capri/internal/prog"
	"capri/internal/progen"
	"capri/internal/workload"
)

// traceCase is one program of an equivalence corpus with the machine it
// runs on.
type traceCase struct {
	name string
	prog *prog.Program
	cfg  machine.Config
}

// corpusTrace runs every case twice — clean, then crashed after crashAt
// retired instructions, recovered with the recorder attached, and run to
// the end — each run into a fresh Recorder, and returns the concatenated
// WriteTo text of all runs in order.
func corpusTrace(t *testing.T, cases []traceCase, crashAt uint64) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, tc := range cases {
		for _, crash := range []bool{false, true} {
			rec := NewRecorder()
			m, err := machine.New(tc.prog, tc.cfg)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			m.SetTap(rec)
			if !crash {
				err = m.Run()
			} else if err = m.RunUntil(crashAt); err == nil && !m.Done() {
				img, cerr := m.Crash()
				if cerr != nil {
					t.Fatalf("%s: %v", tc.name, cerr)
				}
				r, _, rerr := machine.RecoverInstrumented(img, nil, rec)
				if rerr != nil {
					t.Fatalf("%s: %v", tc.name, rerr)
				}
				err = r.Run()
			}
			if err != nil {
				t.Fatalf("%s crash=%v: %v", tc.name, crash, err)
			}
			if _, err := rec.WriteTo(&out); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out.Bytes()
}

// checkDigest compares the corpus trace against its pinned sha256 and
// per-kind event counts.
func checkDigest(t *testing.T, text []byte, wantSum string, wantCounts map[string]int) {
	t.Helper()
	counts := map[string]int{}
	for _, line := range bytes.Split(bytes.TrimSuffix(text, []byte("\n")), []byte("\n")) {
		if kind, _, ok := bytes.Cut(line, []byte(" ")); ok {
			counts[string(kind)]++
		}
	}
	if fmt.Sprint(counts) != fmt.Sprint(wantCounts) {
		t.Errorf("event counts %v, want %v", counts, wantCounts)
	}
	if sum := fmt.Sprintf("%x", sha256.Sum256(text)); sum != wantSum {
		t.Errorf("trace sha256 %s, want %s", sum, wantSum)
	}
}

// TestTraceEquivalenceProgen pins the exact machine-produced trace text of a
// generated corpus — 12 seeds at 1, 2 and 4 threads on small caches and a
// 4-entry front end, clean and crashed at 300 instructions — so any change
// to how the machine reports persistence events shows up as a digest
// mismatch.
func TestTraceEquivalenceProgen(t *testing.T) {
	var cases []traceCase
	for _, threads := range []int{1, 2, 4} {
		for s := uint64(0); s < 12; s++ {
			gcfg := progen.DefaultConfig()
			gcfg.Threads = threads
			res, err := compile.Compile(progen.Generate(s*7+1, gcfg), compile.OptionsForLevel(compile.LevelLICM, 16))
			if err != nil {
				t.Fatal(err)
			}
			cfg := machine.DefaultConfig()
			cfg.Cores = threads
			cfg.Threshold = 16
			cfg.L1Size = 1 << 10
			cfg.L2Size = 4 << 10
			cfg.DRAMSize = 16 << 10
			cfg.FrontEndEntries = 4
			cases = append(cases, traceCase{fmt.Sprintf("seed %d x%d", s*7+1, threads), res.Program, cfg})
		}
	}
	checkDigest(t, corpusTrace(t, cases, 300),
		"e5024d5c84dc050bed2eae35071619fe957cae4ea06b205599eda56cc68952db",
		map[string]int{"commit": 3193, "drain": 2591, "stall": 12, "crash": 24, "recovery": 24})
}

// TestTraceEquivalenceBenchmarks pins the trace text of every paper
// benchmark at scale 1 on tiny 2-way caches, clean and crashed at 5000
// instructions; the dirty-writeback traffic covers the writeback kind the
// generated corpus never reaches.
func TestTraceEquivalenceBenchmarks(t *testing.T) {
	var cases []traceCase
	for _, b := range workload.All() {
		res, err := compile.Compile(b.Build(1), compile.OptionsForLevel(compile.LevelLICM, 64))
		if err != nil {
			t.Fatal(err)
		}
		cfg := machine.DefaultConfig()
		cfg.Cores = b.Threads
		cfg.Threshold = 64
		cfg.L1Size, cfg.L1Ways = 1<<10, 2
		cfg.L2Size, cfg.L2Ways = 2<<10, 2
		cfg.DRAMSize = 4 << 10
		cases = append(cases, traceCase{b.Name, res.Program, cfg})
	}
	checkDigest(t, corpusTrace(t, cases, 5000),
		"de12a252822acfb9fa85fc49f02a6edf5e48aee66d3b88fcd0006f46889707df",
		map[string]int{"commit": 302492, "drain": 300876, "writeback": 325426, "crash": 21, "recovery": 21})
}
