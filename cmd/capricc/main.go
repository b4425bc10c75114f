// Command capricc runs the Capri compiler over a named benchmark workload
// and reports the static region formation: boundaries, checkpoint stores,
// pruning and unrolling activity, and (optionally) the disassembly.
//
// Usage:
//
//	capricc -bench ssca2 -threshold 256 -level +licm [-dump] [-scale 1]
//	capricc -bench radix -verify-after all -stats-json
//	capricc -bench radix -dump-after regions
//	capricc -file prog.casm [-o compiled.casm]   # assemble + compile a text program
//	capricc -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"capri/internal/asm"
	"capri/internal/compile"
	"capri/internal/prog"
	"capri/internal/workload"
)

func main() {
	var (
		benchName   = flag.String("bench", "ssca2", "benchmark to compile (see -list)")
		threshold   = flag.Int("threshold", compile.DefaultThreshold, "region store threshold")
		levelName   = flag.String("level", "+licm", "optimization level: region, +ckpt, +unrolling, +pruning, +licm")
		dump        = flag.Bool("dump", false, "print the compiled program disassembly")
		scale       = flag.Int("scale", 1, "workload scale factor")
		list        = flag.Bool("list", false, "list benchmarks and exit")
		file        = flag.String("file", "", "assemble and compile a .casm text program instead of a benchmark")
		out         = flag.String("o", "", "write the compiled program as assembly to this file")
		verifyAfter = flag.String("verify-after", "", "run the semantic region verifier after this pass (a pass name, or 'all'); the final program is always verified")
		dumpAfter   = flag.String("dump-after", "", "print the program disassembly after each run of this pass")
		statsJSON   = flag.Bool("stats-json", false, "emit compile statistics as JSON (schema capri/compile-stats/v1) instead of the text report")
	)
	flag.Parse()
	if *scale < 1 {
		fatal(fmt.Errorf("-scale must be >= 1, got %d", *scale))
	}

	if *list {
		for _, b := range append(workload.All(), workload.Micros()...) {
			fmt.Printf("%-18s %-8s threads=%d shortloops=%v\n", b.Name, b.Suite, b.Threads, b.ShortLoops)
		}
		return
	}

	level, err := compile.ParseLevel(*levelName)
	if err != nil {
		fatal(fmt.Errorf("capricc: %w", err))
	}
	var p *prog.Program
	var srcName string
	if *file != "" {
		data, err := os.ReadFile(*file)
		if err != nil {
			fatal(err)
		}
		p, err = asm.Parse(*file, string(data))
		if err != nil {
			fatal(err)
		}
		srcName = *file
	} else {
		b, err := workload.ByName(*benchName)
		if err != nil {
			fatal(err)
		}
		p = b.Build(*scale)
		srcName = fmt.Sprintf("%s (%s, %d threads)", b.Name, b.Suite, b.Threads)
	}
	in := p.Stats()

	opts := compile.OptionsForLevel(level, *threshold)
	opts.VerifyAfter = *verifyAfter
	var hooks compile.Hooks
	if *dumpAfter != "" {
		if err := compile.CheckPass(*dumpAfter, opts); err != nil {
			fatal(fmt.Errorf("capricc: -dump-after: %w", err))
		}
		hooks.AfterPass = func(pass string, p *prog.Program) {
			if pass != *dumpAfter {
				return
			}
			fmt.Printf("; ---- after %s ----\n", pass)
			fmt.Print(asm.Format(p))
		}
	}

	res, err := compile.CompileWithHooks(p, opts, hooks)
	if err != nil {
		fatal(err)
	}
	st := res.Stats

	if *statsJSON {
		writeStatsJSON(srcName, level, res, in)
	} else {
		fmt.Printf("input program    %s\n", srcName)
		fmt.Printf("level            %s  threshold %d\n", level, *threshold)
		fmt.Printf("input            %d funcs, %d blocks, %d insts, %d stores\n",
			in.Funcs, in.Blocks, in.Insts, in.Stores)
		fmt.Printf("output           %d blocks, %d insts, %d stores, %d ckpt stores\n",
			st.Static.Blocks, st.Static.Insts, st.Static.Stores, st.Static.Ckpts)
		fmt.Printf("regions          %d static boundaries\n", st.Regions)
		fmt.Printf("checkpoints      %d inserted, %d pruned (recovery slices), %d hoisted by LICM\n",
			st.CkptsInserted, st.CkptsPruned, st.CkptsHoisted)
		fmt.Printf("unrolling        %d loops unrolled, %d body copies\n",
			st.LoopsUnrolled, st.UnrollCopies)
		fmt.Printf("passes           %s\n", strings.Join(compile.PassNames(res.Options), ", "))
	}

	if *out != "" {
		if err := os.WriteFile(*out, []byte(asm.Format(res.Program)), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote            %s\n", *out)
	}
	if *dump {
		fmt.Println()
		fmt.Print(asm.Format(res.Program))
	}
}

// statsDoc is the -stats-json document. Schema "capri/compile-stats/v1":
//
//	schema   string           always "capri/compile-stats/v1"
//	input    {name, funcs, blocks, insts, stores}
//	options  {level, threshold, maxUnroll, verifyAfter}
//	stats    compile.Stats: regions, checkpoint and unroll counters, the
//	         static output shape, and passes[] with per-pass {name,
//	         changed, wallNs, verifyNs} in pipeline order
type statsDoc struct {
	Schema  string      `json:"schema"`
	Input   inputDoc    `json:"input"`
	Options optionsDoc  `json:"options"`
	Stats   statsFields `json:"stats"`
}

type inputDoc struct {
	Name   string `json:"name"`
	Funcs  int    `json:"funcs"`
	Blocks int    `json:"blocks"`
	Insts  int    `json:"insts"`
	Stores int    `json:"stores"`
}

type optionsDoc struct {
	Level       string `json:"level"`
	Threshold   int    `json:"threshold"`
	MaxUnroll   int    `json:"maxUnroll"`
	VerifyAfter string `json:"verifyAfter,omitempty"`
}

type statsFields struct {
	Regions       int       `json:"regions"`
	CkptsInserted int       `json:"ckptsInserted"`
	CkptsPruned   int       `json:"ckptsPruned"`
	CkptsHoisted  int       `json:"ckptsHoisted"`
	LoopsUnrolled int       `json:"loopsUnrolled"`
	UnrollCopies  int       `json:"unrollCopies"`
	Static        staticDoc `json:"static"`
	Passes        []passDoc `json:"passes"`
}

type staticDoc struct {
	Funcs      int `json:"funcs"`
	Blocks     int `json:"blocks"`
	Insts      int `json:"insts"`
	Stores     int `json:"stores"`
	Ckpts      int `json:"ckpts"`
	Boundaries int `json:"boundaries"`
}

type passDoc struct {
	Name     string `json:"name"`
	Changed  int    `json:"changed"`
	WallNS   int64  `json:"wallNs"`
	VerifyNS int64  `json:"verifyNs"`
}

func writeStatsJSON(srcName string, level compile.Level, res *compile.Result, in prog.StaticStats) {
	st := res.Stats
	doc := statsDoc{
		Schema: "capri/compile-stats/v1",
		Input:  inputDoc{Name: srcName, Funcs: in.Funcs, Blocks: in.Blocks, Insts: in.Insts, Stores: in.Stores},
		Options: optionsDoc{
			Level:       level.String(),
			Threshold:   res.Options.Threshold,
			MaxUnroll:   res.Options.MaxUnroll,
			VerifyAfter: res.Options.VerifyAfter,
		},
		Stats: statsFields{
			Regions:       st.Regions,
			CkptsInserted: st.CkptsInserted,
			CkptsPruned:   st.CkptsPruned,
			CkptsHoisted:  st.CkptsHoisted,
			LoopsUnrolled: st.LoopsUnrolled,
			UnrollCopies:  st.UnrollCopies,
			Static: staticDoc{
				Funcs:      st.Static.Funcs,
				Blocks:     st.Static.Blocks,
				Insts:      st.Static.Insts,
				Stores:     st.Static.Stores,
				Ckpts:      st.Static.Ckpts,
				Boundaries: st.Static.Boundaries,
			},
		},
	}
	for _, ps := range st.Passes {
		doc.Stats.Passes = append(doc.Stats.Passes, passDoc{
			Name: ps.Name, Changed: ps.Changed,
			WallNS: ps.WallNS, VerifyNS: ps.VerifyNS,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
