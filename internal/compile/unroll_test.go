package compile

import (
	"reflect"
	"testing"

	"capri/internal/analysis"
	"capri/internal/prog"
	"capri/internal/progen"
	"capri/internal/workload"
)

// unrollLoopsRebuild is the rebuild-per-loop form of unrollLoops: it rebuilds
// the CFG and the whole loop forest after every unrolled loop and remembers
// processed headers. It is the reference the one-forest unrollLoops must
// match exactly.
func unrollLoopsRebuild(p *prog.Program, opts Options) unrollStats {
	var st unrollStats
	var sc unrollScratch
	for _, f := range p.Funcs {
		processed := map[int]bool{}
		for {
			cfg := analysis.BuildCFG(new(analysis.Arena), f)
			loops := cfg.Loops()
			done := true
			for i := range loops {
				l := &loops[i]
				if processed[l.Header] || !innermost(loops, i) || len(l.Latches) != 1 {
					continue
				}
				processed[l.Header] = true
				k := unrollFactor(f, l, opts)
				if k <= 1 {
					continue
				}
				if unrollLoop(p, f, cfg, l, k, &sc) {
					st.LoopsUnrolled++
					st.CopiesMade += k - 1
					done = false
					break // CFG changed; rebuild
				}
			}
			if done {
				break
			}
		}
	}
	return st
}

// compileRebuildUnroll is Compile with the unroll pass driven by
// unrollLoopsRebuild.
func compileRebuildUnroll(p *prog.Program, opts Options) (*Result, error) {
	if opts.MaxUnroll <= 0 {
		opts.MaxUnroll = autoMaxUnroll(opts.Threshold)
	}
	table := passes
	for i := range table {
		if table[i].name == PassUnroll {
			table[i].run = func(pc *passCtx) (int, error) {
				us := unrollLoopsRebuild(pc.p, pc.opts)
				pc.stats.LoopsUnrolled, pc.stats.UnrollCopies = us.LoopsUnrolled, us.CopiesMade
				return us.LoopsUnrolled, nil
			}
		}
	}
	res := &Result{Program: p.Clone(), Options: opts}
	if err := runPasses(&table, res.Program, opts, Hooks{}, &res.Stats); err != nil {
		return nil, err
	}
	res.Stats.Static = res.Program.Stats()
	res.Stats.Regions = res.Stats.Static.Boundaries
	return res, nil
}

// untimed returns st without its wall and verify times.
func untimed(st Stats) Stats {
	st.Passes = append([]PassStat(nil), st.Passes...)
	for i := range st.Passes {
		st.Passes[i].WallNS, st.Passes[i].VerifyNS = 0, 0
	}
	return st
}

// TestUnrollOneForestMatchesRebuild compiles every benchmark and progen
// seeds 1–300 (1–30 under -short) at every level and at thresholds from 2 to
// 1024, once with the one-forest unrollLoops and once with the
// rebuild-per-loop reference, and requires the same outcome: equal output
// fingerprints and equal Stats, or the same error. Levels below +unrolling
// run no unroll pass, so both compiles would run the same pipeline; they are
// skipped.
func TestUnrollOneForestMatchesRebuild(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 30
	}
	type src struct {
		name string
		p    *prog.Program
	}
	var srcs []src
	for _, w := range workload.All() {
		srcs = append(srcs, src{w.Name, w.Build(1)})
	}
	for s := 1; s <= seeds; s++ {
		srcs = append(srcs, src{"progen", progen.Generate(uint64(s), progen.DefaultConfig())})
	}
	unrolled := 0
	for _, s := range srcs {
		for _, l := range Levels {
			for _, th := range []int{2, 8, 16, 64, 256, 1024} {
				opts := OptionsForLevel(l, th)
				if !opts.Unroll {
					continue
				}
				got, gerr := Compile(s.p, opts)
				want, werr := compileRebuildUnroll(s.p, opts)
				if gerr != nil || werr != nil {
					if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
						t.Fatalf("%s %s@%d: error %v, reference error %v", s.name, l, th, gerr, werr)
					}
					continue
				}
				if g, w := got.Program.Fingerprint(), want.Program.Fingerprint(); g != w {
					t.Fatalf("%s %s@%d: fingerprint %x, reference %x", s.name, l, th, g, w)
				}
				if g, w := untimed(got.Stats), untimed(want.Stats); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s %s@%d: stats %+v, reference %+v", s.name, l, th, g, w)
				}
				unrolled += got.Stats.LoopsUnrolled
			}
		}
	}
	if unrolled == 0 {
		t.Fatal("no loop was unrolled; the comparison checks nothing")
	}
}
