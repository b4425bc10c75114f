// Command capribench regenerates the paper's evaluation artifacts over the
// synthetic benchmark suites: Figure 8 (threshold sweep), Figure 9
// (cumulative compiler optimizations), Figures 10/11 (region shape), the
// §6.2 headline numbers, and Table 1.
//
// Usage:
//
//	capribench -fig 8            # one figure
//	capribench -all              # everything
//	capribench -fig 8 -jobs 8    # shard the sweep across 8 workers
//	capribench -headline         # suite geomeans only
//	capribench -list             # benchmark inventory
//	capribench -sweepcheck       # assert parallel == sequential
//	capribench -sweepcheck -verify EXPERIMENTS.md    # plus docs block check
//	capribench -explain          # stall-attribution tables (cycle ledger)
//	capribench -explain -verify EXPERIMENTS.md   # diff tables vs the docs
//	capribench -audit            # run the suite under the Fig. 7 auditor
//	capribench -audit -record-out records/       # plus per-benchmark run records
package main

import (
	"flag"
	"fmt"
	"os"

	"capri/internal/figures"
	"capri/internal/machine"
	"capri/internal/stats"
	"capri/internal/workload"
)

func main() {
	var (
		fig      = flag.Int("fig", 0, "figure to regenerate: 8, 9, 10 or 11")
		all      = flag.Bool("all", false, "regenerate every figure and the headline")
		headline = flag.Bool("headline", false, "print the §6.2 headline overheads")
		scale    = flag.Int("scale", 1, "workload scale factor")
		list     = flag.Bool("list", false, "list benchmarks and exit")
		chart    = flag.String("chart", "", "additionally render one column as an ASCII bar chart (e.g. \"256\" for fig 8, \"+licm\" for fig 9)")
		explain  = flag.Bool("explain", false, "print the stall-attribution tables (where the Capri-vs-baseline cycles went)")
		verify   = flag.String("verify", "", "with -explain, diff the tables against the marked blocks in this file instead of printing")
		auditAll = flag.Bool("audit", false, "run every benchmark under the online Fig. 7 invariant auditor; exit non-zero on any violation")
		recDir   = flag.String("record-out", "", "with -audit, write per-benchmark capri/run-record/v1 files into this directory")
		auditTh  = flag.Int("threshold", 256, "region store threshold (with -audit)")
		jobs     = flag.Int("jobs", 1, "parallel sweep workers (0 = GOMAXPROCS); see README \"Running parallel sweeps\"")
		sweepChk = flag.Bool("sweepcheck", false, "assert the sweep determinism contract: parallel tables and work counters identical to sequential; with -verify FILE, also byte-check the embedded accounting block")
	)
	flag.Parse()
	if *scale < 1 {
		check(fmt.Errorf("-scale must be >= 1, got %d", *scale))
	}

	if *sweepChk {
		check(runSweepCheck(*scale, *jobs, *verify))
		return
	}

	if *auditAll {
		check(runAudit(*scale, *auditTh, *recDir))
		return
	}

	if *explain {
		check(runExplain(*scale, *verify))
		return
	}

	if *list {
		for _, b := range append(workload.All(), workload.Micros()...) {
			fmt.Printf("%-18s %-8s threads=%d\n", b.Name, b.Suite, b.Threads)
		}
		return
	}

	h := figures.NewHarness(*scale)
	h.Parallelism = *jobs

	if *all || *fig == 0 && !*headline {
		fmt.Print(machine.DefaultConfig().Table1())
		fmt.Println()
	}

	show := func(tbl *stats.Table, baseline float64) {
		fmt.Println(tbl)
		if *chart != "" {
			fmt.Println(tbl.Chart(*chart, baseline, 50))
		}
	}
	runFig := func(n int) {
		switch n {
		case 8:
			tbl, err := h.Fig8(nil)
			check(err)
			show(tbl, 1.0)
		case 9:
			tbl, err := h.Fig9()
			check(err)
			show(tbl, 1.0)
		case 10:
			tbl, err := h.Fig10()
			check(err)
			show(tbl, 0)
		case 11:
			tbl, err := h.Fig11()
			check(err)
			show(tbl, 0)
		case 12: // not a paper figure: the §6.2 NVM-endurance claim as a table
			tbl, err := h.NVMWrites()
			check(err)
			show(tbl, 0)
		default:
			check(fmt.Errorf("capribench: unknown figure %d (have 8-11, 12 = NVM writes)", n))
		}
	}

	switch {
	case *all:
		for _, n := range []int{8, 9, 10, 11, 12} {
			runFig(n)
		}
		printHeadline(h)
	case *headline:
		printHeadline(h)
	case *fig != 0:
		runFig(*fig)
	default:
		flag.Usage()
	}
}

func printHeadline(h *figures.Harness) {
	hd, err := h.Headline()
	check(err)
	fmt.Println("Headline overheads at threshold 256, all optimizations (paper §6.2):")
	fmt.Printf("  SPEC CPU2017   %+6.1f%%   (paper:  0.0%%)\n", 100*hd.SPEC)
	fmt.Printf("  STAMP          %+6.1f%%   (paper: 12.4%%)\n", 100*hd.STAMP)
	fmt.Printf("  Splash-3       %+6.1f%%   (paper:  9.1%%)\n", 100*hd.Splash)
	fmt.Printf("  overall        %+6.1f%%   (paper:  5.1%%)\n", 100*hd.Overall)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
