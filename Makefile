# Capri build/check targets. Everything here uses only the Go toolchain and
# git — no external dependencies.

GO ?= go

# JOBS shards the figure sweeps and fault campaigns across a bounded worker
# pool (sweep orchestrator, DESIGN.md §4h); results are deterministic at any
# value.
JOBS ?= 4

.PHONY: all build test check lint audit soak soak-mt soak-long mutants docs-verify bench bench-smoke fuzz clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) build ./... && $(GO) test ./...

# lint is vet plus the godoc-coverage gate: every exported identifier in the
# listed packages must carry a doc comment (tools/doccheck — plain go/ast,
# no external linters), plus the hot-path guard: the compiler must still
# inline (*mem.Mem).Load and (*mem.NVM).Peek, the simulator's per-access
# reads, and (*proxy.Window).hit, the monitoring-window lookup of every
# arriving proxy entry, plus the start-up guard: no non-test package of the
# commands, the simulator or the tools may link net (net/http's package
# init alone adds about 3 MB to every binary's resident set).
lint:
	$(GO) vet ./...
	@m=$$($(GO) build -gcflags=-m ./internal/mem 2>&1); for f in '(*Mem).Load' '(*NVM).Peek'; do echo "$$m" | grep -qF "can inline $$f" || { echo "lint: $$f no longer inlines"; exit 1; }; done
	@$(GO) build -gcflags=-m ./internal/proxy 2>&1 | grep -qF "can inline (*Window).hit" || { echo "lint: (*Window).hit no longer inlines"; exit 1; }
	@deps=$$($(GO) list -deps ./cmd/... ./internal/... ./tools/...) || exit 1; net=$$(echo "$$deps" | grep -E '^net(/|$$)'); [ -z "$$net" ] || { echo "lint: non-test code links" $$net; exit 1; }
	$(GO) run ./tools/doccheck internal/sweep internal/fault internal/audit internal/figures internal/compile internal/machine internal/workload internal/recovery internal/analysis internal/prog internal/slab internal/trace internal/asm internal/isa internal/progen internal/mem internal/image internal/proxy internal/cache internal/stats cmd/capristat tools/mutants

# check is the pre-merge tier: lint (vet + godoc coverage), the
# race-sensitive packages under the race detector (figures carries the
# harness's per-run singleflight, sweep the parallel fleet, machine two
# concurrent recoveries of one crash image sharing its NVM pages),
# the full verifier matrix (semantic region verifier after every pass for
# every benchmark x level x threshold, plus the seven seed-derived progen
# programs LICM once broke by hoisting past a callee's write, at every level
# and crashed at every instruction at +licm@64, the three it once overflowed
# at threshold 16, the 14 a regions/ckpt fixpoint once failed to fit at
# threshold 16, at every level from +ckpt, and 1,000 seed-mixed progen
# programs at +pruning and +licm, each of which compiles or fails only as
# an infeasible region; the sweeps skip the race run and run in this one) with the compiler's allocation pins
# (zero-allocation fingerprints, the ocean compile budget, lu's allocations
# growing at most 2x for an 11x larger output, and CFGs, loop forests and
# liveness carved from a warm analysis arena at under one allocation each),
# the arena's lifetime test (no carved result is overwritten by later carves
# or appends) and chunk-growth pins (a reserved arena and slab.Pool grow by
# max(request, carved so far, first chunk)), slab.Table's unit tests
# (probe runs across the wrap-around, in-place prune, growth keeping every
# entry, a random run against a map, embedded first slots that allocate
# nothing), slab.Pages' copy-on-write test (random writes, shares and drops
# over four live tables against a map each), the fault-plan decoder's
# fuzz-corpus replay (every committed plan is refused or within bounds) with
# the huge-core-count replay regression, the dispatch-equivalence suite (the
# run loop's strict quantum against a one-instruction-per-entry reference
# schedule, over every benchmark and the 2-, 4- and 8-core geometries),
# the memory store's fuzz-corpus replay against its map model (stack tops,
# heap base, page and chunk boundaries, the last direct and first far page,
# three live clones sharing pages) with the store's zero-allocation pin
# (copied pages included), its page-table growth pin (a heap walk allocates
# per chunk of pages and per directory doubling) and its clone pin (an NVM
# clone allocates the same at every page count and copies no page), the
# cache's seed replay against its unpacked model (FuzzCacheDifferential:
# direct-mapped, 8- and 16-way, power-of-two and other set counts) with its
# 32-byte pointer-free line pin (TestLineLayout), the
# crash-image reader's fuzz-corpus replay
# (every committed image, hostile ones included, is refused or recovers and
# runs without a panic), the assembler's fuzz-corpus replay (every committed
# source is refused or parses to a verified program whose formatted text
# parses back to the same text), the run-record decoder's fuzz-corpus
# replay (every committed record, hostile ones included, is refused or
# renders in every capriinspect view without a panic), the proxy layout's
# fuzz-corpus replay against its whole-entry model (FuzzProxyDifferential:
# its seeds carry the monitoring window past its prune bound and book and
# re-book drains) with the cross-commit pin (TestCrossCommitPin: image, flight-recorder and
# Stats digests of fixed crash and clean runs equal the committed ones), the
# documentation-freshness check — which includes
# the sweep determinism contract: parallel (-jobs) fig8/fig9 tables
# byte-identical to sequential, with the same simulation and compilation
# counts — and a capristat smoke run (its committed bench result set
# compared with itself through -gate, so the comparison tool cannot rot
# without judging any fresh measurement).
# The bench smoke test runs every repository-benchmark workload once at a
# tiny size and checks its oracles. The audit tier it runs carries the
# machine's allocation pins (construction independent of thread count, and
# one audited crash point's budget), the flight recorder's growth pins and
# the auditor's differential corpus replay against its map model. Last, the
# committed mutants (make mutants) prove that the tests named above catch
# the bugs they exist for.
check:
	$(MAKE) lint
	$(GO) test -race ./internal/machine ./internal/figures ./internal/compile ./internal/sweep ./internal/fault
	$(GO) test -run 'TestVerifierMatrix|TestMutation|TestFingerprintZeroAlloc|TestCompileAllocsBounded|TestCompileAllocsGrowSlowly|TestLivenessAllocsConstant|TestBuildCFGAllocsConstant|TestLoopsAllocsPerLoop|TestArenaResultsOutliveRefills|TestArenaChunksGrowWithUse' ./internal/compile ./internal/analysis
	$(GO) test -run 'TestPoolChunksGrowWithUse|TestTable|TestPagesShareIsolation' ./internal/slab
	$(GO) test -run 'FuzzPlanDecode|TestReplayPlanRejectsHugeCoreCount' ./internal/fault
	$(GO) test -run 'DispatchEquivalence' .
	$(GO) test -run 'FuzzStoreDifferential|TestPagedAccessAllocFree|TestPageTableAllocsGrowSlowly|TestNVMCloneAllocsIndependentOfPages' ./internal/mem
	$(GO) test -run 'FuzzCacheDifferential|TestLineLayout' ./internal/cache
	$(GO) test -run 'FuzzImageRead' ./internal/image
	$(GO) test -run 'FuzzAsmParse|TestParseErrors' ./internal/asm
	$(GO) test -run 'FuzzRunRecordDecode' ./cmd/capriinspect
	$(GO) test -run 'FuzzProxyDifferential|TestCrossCommitPin' . ./internal/proxy
	$(MAKE) bench-smoke
	$(MAKE) audit
	$(MAKE) soak
	$(MAKE) soak-mt
	$(MAKE) docs-verify
	$(GO) run ./cmd/capristat -gate cmd/capristat/testdata/a cmd/capristat/testdata/a
	$(MAKE) mutants

# audit runs the online Fig. 7 invariant auditor over the full crash
# machinery: the 104-program progen crash sweep and the 19-benchmark suite,
# every run observed end-to-end (run -> crash -> recovery replay -> resume).
# Any violated provenance invariant fails with the per-line event chain.
# The auditor's stream mutation tests prove its rules bite (each seeded
# corrupt event stream produces a violation; the protocol corruptions
# themselves are mutants in make mutants), FuzzAuditorDifferential's corpus
# replay proves its per-core queues and paged shadow agree with a map-keyed
# model of the same rules, and FuzzFlightRecorderDifferential's seeds prove
# the recorder's delta-encoded ring answers every query as a ring of whole
# events does. The allocation pins hold the audited crash path
# to its cost model: a store's life through the auditor allocates nothing,
# the flight recorder allocates with its run rather than its cap
# (TestFlightRecorderGrowsWithRun, TestFlightRecorderShortLastChunk), a
# region whose boundary carries checkpoints, a sync and emits moves through
# the proxy without allocating (TestBoundaryPayloadsZeroAlloc) in rings of
# pointer-free records of at most 48 bytes (TestRingElementsPointerFree),
# building a machine
# costs the same at every thread count (TestNewAllocsIndependentOfCores),
# one campaign-geometry crash point stays within its measured allocation
# count (TestCrashPointAllocsBounded), and the memory controller's window
# notes and hits and drain bookings and retirements allocate nothing once
# warm (TestControllerBookkeepingAllocFree). The two capricrash
# runs drive the command's benchmark sweep and random-program campaign
# through the same crash driver (recovery.Run) end to end.
audit:
	$(GO) test -run 'TestAuditProgenCrashSweep|TestAuditBenchmarks' .
	$(GO) run ./cmd/capricrash -bench genome -points 5
	$(GO) run ./cmd/capricrash -fuzz 5 -threads 2
	$(GO) test -run 'TestMutation|TestAuditorTapZeroAlloc|FuzzAuditorTap|FuzzAuditorDifferential|TestFlightRecorderGrowsWithRun|TestFlightRecorderShortLastChunk|FuzzFlightRecorderDifferential' ./internal/audit
	$(GO) test -run 'TestCrashPointAllocsBounded|TestNewAllocsIndependentOfCores|TestControllerBookkeepingAllocFree' ./internal/machine
	$(GO) test -run 'TestBoundaryPayloadsZeroAlloc|TestRingElementsPointerFree' ./internal/proxy

# soak is the short fixed-seed hardware-fault campaign (DESIGN.md §4f):
# seeded random fault plans — torn NVM line writes, nested crashes during
# recovery, transient drain write errors — over the synthetic fault
# workloads, a progen corpus slice, and all 19 paper benchmarks, every run
# audited and verified against its golden state. The fault package's tests
# run first, the clean-tree campaigns among them. make mutants seeds
# protocol bugs into the simulator and requires those campaigns to catch
# each with a shrunk plan of at most 3 faults that replays, so a green
# sweep means something.
soak:
	$(GO) test ./internal/fault
	$(GO) run ./cmd/capricrash -campaign -seed 1 -trials 4 -corpus 52 -benches -jobs $(JOBS)

# soak-mt is the fixed-seed multi-core contention campaign: the cross-core
# contention workloads (shared fetch-and-add counters, the MPMC persistent
# queue, lock-protected records) at 2- and 4-core geometries, crash points
# landing inside atomic two-phase commits and mid-drain, every run checked
# against the workloads' conservation invariants, the detectability
# contract, and recovery-order commutativity. The contention tests run
# first: the target geometry checks, the clean-tree contention campaign
# and the recovery-order permutation tests. The mutants that break the
# cross-core rules (a sync op not sealing its region, drains and recovery
# redo writes bypassing the sequence guard; make mutants) must each fail
# that clean-tree campaign with a shrunk plan. Then the campaign itself
# sweeps all three workload families at both geometries.
soak-mt:
	$(GO) test -run 'TestContention|TestCampaignContention|TestRecoveryOrderCommutes' ./internal/fault
	$(GO) run ./cmd/capricrash -campaign -seed 1 -trials 4 -corpus 0 -cores 2,4 -jobs $(JOBS)

# mutants runs the committed mutation proofs (tools/mutants): each file in
# testdata/mutants replaces one exact snippet of one source file through
# go test -overlay, leaving the tree untouched, and the tests it names must
# fail (and print its match line, if it gives one). A survivor, a snippet
# that no longer occurs exactly once or a mutant that does not build fails
# the target. The six protocol mutants (skip-undo, skip-marker-check,
# drop-torn-prefix, sync-no-commit, drain-no-guard, replay-no-guard) must
# each fail a clean-tree campaign with a shrunk plan of at most 3 faults
# that replays from its JSON alone. The quantum-tie-break mutant (the run
# loop letting a core keep a cycle tie a lower-ID core should win) must fail
# the cross-commit pin or the dispatch-equivalence suite.
mutants:
	$(GO) run ./tools/mutants

# soak-long is the open-ended variant: more trials over the whole corpus,
# bounded by a wall-clock budget. Override the seed/budget per run, e.g.
#   make soak-long SOAK_SEED=$$RANDOM SOAK_DURATION=30m
SOAK_SEED ?= 1
SOAK_DURATION ?= 10m
soak-long:
	$(GO) run ./cmd/capricrash -campaign -seed $(SOAK_SEED) -trials 8 -corpus 104 -benches -duration $(SOAK_DURATION) -jobs $(JOBS)

# docs-verify re-runs the stall-attribution tables (deterministic simulator,
# fixed workload scale) and byte-compares them against the marked blocks in
# EXPERIMENTS.md, so the documented numbers can never drift from the code.
# The sweepcheck pass additionally proves the §4h determinism contract on
# every run: a parallel (-jobs) sweep produces byte-identical fig8/fig9
# tables to the sequential one with the same simulation, instruction and
# compilation counts (counter-asserted), and its accounting block is
# byte-compared against EXPERIMENTS.md.
# Regenerate with: go run ./cmd/capribench -explain
#             and: go run ./cmd/capribench -sweepcheck -jobs 4
docs-verify:
	$(GO) run ./cmd/capribench -explain -verify EXPERIMENTS.md
	$(GO) run ./cmd/capribench -sweepcheck -jobs $(JOBS) -verify EXPERIMENTS.md

# bench runs the perf-regression micro-benchmarks: raw store and proxy
# throughput, the monitoring window's ns and allocations per noted and
# looked-up word (BenchmarkWindowNoteHit), the page table's ns and allocations per page touched over
# sparse stacks plus a heap walk (BenchmarkMemPageWalk), whole-pipeline
# compiles with their allocs/op, program fingerprinting, the auditor and the
# flight recorder per event, allocs per machine built and per audited crash
# point, plus the end-to-end simulator benchmark.
bench:
	$(GO) test -bench 'Mem|NVM|Proxy|Path|Window' -benchmem -run '^$$' ./internal/mem ./internal/proxy
	$(GO) test -bench 'Compile|Fingerprint' -benchmem -run '^$$' ./internal/compile
	$(GO) test -bench 'AuditorTap|FlightRecorderTap' -benchmem -run '^$$' ./internal/audit
	$(GO) test -bench 'MachineNew|CrashPoint' -benchmem -run '^$$' ./internal/machine
	$(GO) test -bench 'SimulatorThroughput' -run '^$$' .

# bench-smoke runs the repository benchmark's own tests (bench/ is a separate
# Go module, so the root `go test ./...` does not reach it): each workload
# once at a tiny size, oracles and digests checked (~2 s).
bench-smoke:
	cd bench && $(GO) test ./...

# fuzz runs each native fuzz target for FUZZTIME: the auditor tap
# (FuzzAuditorTap), the auditor against its map model
# (FuzzAuditorDifferential), the flight recorder against a ring of whole
# events (FuzzFlightRecorderDifferential), the memory store against its map model
# (FuzzStoreDifferential), the cache against its unpacked model
# (FuzzCacheDifferential), the proxy hardware against its whole-entry model
# (FuzzProxyDifferential), the crash-image reader (FuzzImageRead), the
# assembler (FuzzAsmParse), the fault-plan decoder (FuzzPlanDecode) and the
# run-record decoder behind every capriinspect view (FuzzRunRecordDecode).
# Plain `go test` replays their committed corpora; a failing input the
# fuzzer finds lands in the package's testdata/fuzz. Cache op streams run to
# 1 KB and image and run-record inputs are several KB, so their minimization
# is capped: at the default minute per new input the run would do little
# else.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzAuditorTap -fuzztime $(FUZZTIME) ./internal/audit
	$(GO) test -run '^$$' -fuzz FuzzAuditorDifferential -fuzztime $(FUZZTIME) ./internal/audit
	$(GO) test -run '^$$' -fuzz FuzzFlightRecorderDifferential -fuzztime $(FUZZTIME) ./internal/audit
	$(GO) test -run '^$$' -fuzz FuzzStoreDifferential -fuzztime $(FUZZTIME) ./internal/mem
	$(GO) test -run '^$$' -fuzz FuzzCacheDifferential -fuzztime $(FUZZTIME) -fuzzminimizetime 3s ./internal/cache
	$(GO) test -run '^$$' -fuzz FuzzProxyDifferential -fuzztime $(FUZZTIME) ./internal/proxy
	$(GO) test -run '^$$' -fuzz FuzzImageRead -fuzztime $(FUZZTIME) -fuzzminimizetime 3s ./internal/image
	$(GO) test -run '^$$' -fuzz FuzzAsmParse -fuzztime $(FUZZTIME) ./internal/asm
	$(GO) test -run '^$$' -fuzz FuzzPlanDecode -fuzztime $(FUZZTIME) ./internal/fault
	$(GO) test -run '^$$' -fuzz FuzzRunRecordDecode -fuzztime $(FUZZTIME) -fuzzminimizetime 3s ./cmd/capriinspect

clean:
	rm -f capri.test
