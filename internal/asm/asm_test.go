package asm

import (
	"strings"
	"testing"

	"capri/internal/compile"
	"capri/internal/isa"
	"capri/internal/machine"
	"capri/internal/prog"
	"capri/internal/progen"
	"capri/internal/workload"
)

const sumSrc = `
; sum 0..99 into memory, emit the total
func main
b0:
    movi sp, #524288
    movi r0, #0
    movi r1, #100
    movi r2, #1048576
    movi r3, #0
    br b1
b1:
    brif r0 ge r1 -> b3 else b2
b2:
    add r3, r3, r0
    store [r2+0], r3
    addi r0, r0, #1
    br b1
b3:
    emit r3
    halt
thread main
`

func TestParseAndRun(t *testing.T) {
	p, err := Parse("sum", sumSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.Capri = false
	cfg.Cores = 1
	m, err := machine.New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if out := m.Output(0); len(out) != 1 || out[0] != 4950 {
		t.Errorf("output = %v, want [4950]", out)
	}
}

func TestParsedProgramCompilesAndRecovers(t *testing.T) {
	p := MustParse("sum", sumSrc)
	res, err := compile.Compile(p, compile.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.Cores = 1
	m, _ := machine.New(res.Program, cfg)
	if err := m.RunUntil(200); err != nil {
		t.Fatal(err)
	}
	img, err := m.Crash()
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := machine.Recover(img)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if out := r.Output(0); len(out) != 1 || out[0] != 4950 {
		t.Errorf("recovered output = %v, want [4950]", out)
	}
}

const callSrc = `
func leaf
b0:
    addi r0, r0, #5
    ret
func main
b0:
    movi sp, #524288
    movi r0, #10
    call leaf
    emit r0
    halt
thread main
`

func TestParseCalls(t *testing.T) {
	p := MustParse("calls", callSrc)
	if len(p.RetSites) != 1 {
		t.Fatalf("ret sites = %d", len(p.RetSites))
	}
	cfg := machine.DefaultConfig()
	cfg.Capri = false
	cfg.Cores = 1
	m, _ := machine.New(p, cfg)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if out := m.Output(0); len(out) != 1 || out[0] != 15 {
		t.Errorf("output = %v, want [15]", out)
	}
}

func TestParseSyncAndMemOps(t *testing.T) {
	src := `
func main
b0:
    movi sp, #524288
    movi r1, #1048576
    movi r2, #3
    lock [r1+0]
    amoadd r3, [r1+8], r2
    amocas r4, [r1+16], r3, r2
    unlock [r1+0]
    fence
    load r5, [r1+8]
    sel r6, r5 ? r2 : r3
    emit r5
    halt
thread main
`
	p := MustParse("sync", src)
	cfg := machine.DefaultConfig()
	cfg.Capri = false
	cfg.Cores = 1
	m, _ := machine.New(p, cfg)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if out := m.Output(0); len(out) != 1 || out[0] != 3 {
		t.Errorf("output = %v, want [3]", out)
	}
}

func TestParseNegativeOffsets(t *testing.T) {
	src := `
func main
b0:
    movi sp, #524288
    movi r1, #1048640
    movi r2, #7
    store [r1-8], r2
    load r3, [r1-8]
    emit r3
    halt
thread main
`
	p := MustParse("neg", src)
	cfg := machine.DefaultConfig()
	cfg.Capri = false
	cfg.Cores = 1
	m, _ := machine.New(p, cfg)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if out := m.Output(0); out[0] != 7 {
		t.Errorf("output = %v, want [7]", out)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"b0:\n halt\n", "outside a function"},
		{"func f\nb0:\n bogus r1\n", "unknown mnemonic"},
		{"func f\nb0:\n movi r99, #1\n halt\n", "bad register"},
		{"func f\nb0:\n movi r1, 5\n halt\n", "immediate"},
		{"func f\nb0:\n br nowhere\n", "unknown block label"},
		{"func f\nb0:\n call ghost\n halt\nthread f\n", "unknown function"},
		{"func f\nb0:\n halt\nthread ghost\n", "unknown function"},
		{"func f\nfunc f\n", "duplicate function"},
		{"func f\nb0:\n halt\nb0:\n halt\n", "duplicate block"},
		{"func f\nb0:\n movi r1, #1\n", "missing terminator"},
		{"func f\nb0:\n brif r0 xx r1 -> b0 else b0\n", "bad condition"},
		{"func f\nb0:\n store [], r0\n halt\n", "memory operand"},
	}
	for _, tc := range cases {
		_, err := Parse("t", tc.src)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) error = %v, want contains %q", tc.src, err, tc.want)
		}
	}
}

func TestFormatRoundTripStable(t *testing.T) {
	p := MustParse("sum", sumSrc)
	text1 := Format(p)
	p2, err := Parse("sum", text1)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text1)
	}
	text2 := Format(p2)
	if text1 != text2 {
		t.Errorf("format not stable:\n--- first ---\n%s\n--- second ---\n%s", text1, text2)
	}
}

func TestFormatRoundTripGeneratedPrograms(t *testing.T) {
	// Random structured programs (with calls and multiple same-named
	// functions) must survive a format/parse/format round trip.
	gcfg := progen.DefaultConfig()
	gcfg.Threads = 2
	for seed := uint64(0); seed < 10; seed++ {
		p := progen.Generate(seed*13+1, gcfg)
		text1 := Format(p)
		p2, err := Parse(p.Name, text1)
		if err != nil {
			t.Fatalf("seed %d reparse: %v", seed, err)
		}
		if Format(p2) != text1 {
			t.Fatalf("seed %d: round trip not stable", seed)
		}
		// And the reparsed program must behave identically.
		cfg := machine.DefaultConfig()
		cfg.Capri = false
		cfg.L2Size = 256 << 10
		cfg.DRAMSize = 1 << 20
		m1, _ := machine.New(p, cfg)
		m2, _ := machine.New(p2, cfg)
		if err := m1.Run(); err != nil {
			t.Fatal(err)
		}
		if err := m2.Run(); err != nil {
			t.Fatal(err)
		}
		for th := 0; th < p.NumThreads(); th++ {
			o1, o2 := m1.Output(th), m2.Output(th)
			if len(o1) != len(o2) {
				t.Fatalf("seed %d: output length differs", seed)
			}
			for i := range o1 {
				if o1[i] != o2[i] {
					t.Fatalf("seed %d: thread %d output differs", seed, th)
				}
			}
		}
	}
}

func TestFormatCompiledProgram(t *testing.T) {
	// Compiled programs (with boundaries and ckpts) format and reparse.
	p := MustParse("sum", sumSrc)
	res, err := compile.Compile(p, compile.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	text := Format(res.Program)
	if !strings.Contains(text, "rgn.boundary") || !strings.Contains(text, "ckpt r") {
		t.Fatalf("compiled dump missing boundary/ckpt:\n%s", text)
	}
	p2, err := Parse("compiled", text)
	if err != nil {
		t.Fatalf("reparse compiled: %v", err)
	}
	// Boundary flags survive.
	found := false
	for _, f := range p2.Funcs {
		for _, b := range f.Blocks {
			if b.BoundaryAt {
				found = true
			}
		}
	}
	if !found {
		t.Error("BoundaryAt flags lost in round trip")
	}
}

// TestFormatDeterministic formats every benchmark compiled at +licm@64 — where
// many boundary blocks carry several recovery slices — 20 times and requires
// identical text each time: the slice comments must not follow map order.
func TestFormatDeterministic(t *testing.T) {
	multi := 0
	for _, w := range workload.All() {
		res, err := compile.Compile(w.Build(1), compile.OptionsForLevel(compile.LevelLICM, 64))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, f := range res.Program.Funcs {
			for _, b := range f.Blocks {
				if len(b.RecoverySlices) > 1 {
					multi++
				}
			}
		}
		want := Format(res.Program)
		for i := 1; i < 20; i++ {
			if got := Format(res.Program); got != want {
				t.Fatalf("%s: format %d differs from the first", w.Name, i+1)
			}
		}
	}
	if multi == 0 {
		t.Fatal("no block carries more than one recovery slice; the test checks nothing")
	}
}

func TestParseRegisterAliases(t *testing.T) {
	if r, err := parseReg("sp"); err != nil || r != isa.SP {
		t.Errorf("sp parsed as %v, %v", r, err)
	}
	if r, err := parseReg("r31"); err != nil || r != isa.SP {
		t.Errorf("r31 parsed as %v, %v", r, err)
	}
	if _, err := parseReg("r32"); err == nil {
		t.Error("r32 accepted")
	}
	if _, err := parseReg("x1"); err == nil {
		t.Error("x1 accepted")
	}
}

func TestParseHexImmediates(t *testing.T) {
	src := "func f\nb0:\n movi r1, #0x10\n emit r1\n halt\nthread f\n"
	p := MustParse("hex", src)
	if p.Funcs[0].Blocks[0].Insts[0].Imm != 16 {
		t.Errorf("hex immediate = %d", p.Funcs[0].Blocks[0].Insts[0].Imm)
	}
}

func TestWorkloadThroughAssembler(t *testing.T) {
	// A real benchmark stand-in formatted to text, reparsed, compiled and
	// executed must match the original's outputs — the assembler is a
	// faithful serialization of everything the toolchain needs.
	w, err := workload.ByName("ssca2")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build(1)
	text := Format(p)
	p2, err := Parse(p.Name, text)
	if err != nil {
		t.Fatal(err)
	}

	run := func(src *prog.Program) []uint64 {
		res, err := compile.Compile(src, compile.OptionsForLevel(compile.LevelLICM, 64))
		if err != nil {
			t.Fatal(err)
		}
		cfg := machine.DefaultConfig()
		cfg.Threshold = 64
		cfg.L2Size = 512 << 10
		cfg.DRAMSize = 4 << 20
		m, err := machine.New(res.Program, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m.Output(0)
	}
	a, b := run(p), run(p2)
	if len(a) != len(b) {
		t.Fatalf("output lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("output[%d]: %d vs %d", i, a[i], b[i])
		}
	}
}
