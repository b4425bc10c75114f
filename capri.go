// Package capri is a from-scratch reproduction of "Capri: Compiler and
// Architecture Support for Whole-System Persistence" (HPDC 2022): a compiler
// that partitions programs into failure-atomic regions bounded by a store
// threshold, and a simulated architecture whose non-volatile proxy buffers
// make every region's stores persist all-or-nothing in NVM — so any program,
// unmodified, can resume from a power failure at its last region boundary.
//
// The package is a facade over the internal toolchain:
//
//	prog    := capri.NewProgram(...)        // build IR via prog.Builder
//	res, _  := capri.Compile(prog, capri.DefaultOptions())
//	m, _    := capri.NewMachine(res.Program, capri.DefaultConfig())
//	_       = m.Run()                       // runs to completion
//
// Crash consistency end to end:
//
//	m.RunUntil(n)                           // power fails after n instructions
//	img, _ := m.Crash()                     // what battery-backed HW preserves
//	r, rep, _ := capri.Recover(img)         // §5.4 recovery protocol
//	_ = r.Run()                             // resumes at the last boundary
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every figure.
package capri

import (
	"io"

	"capri/internal/compile"
	"capri/internal/image"
	"capri/internal/machine"
	"capri/internal/prog"
)

// Re-exported core types. The aliases keep one import path for downstream
// users while the implementation stays in focused internal packages.
type (
	// Program is an IR program (functions of basic blocks). Construct one
	// with NewBuilder.
	Program = prog.Program
	// Builder incrementally constructs a Program.
	Builder = prog.Builder
	// FuncBuilder emits one function block by block.
	FuncBuilder = prog.FuncBuilder
	// Options selects the Capri compiler's threshold and optimizations.
	Options = compile.Options
	// Level is a cumulative optimization level (region → +ckpt → +unrolling
	// → +pruning → +licm), as plotted in the paper's Figure 9.
	Level = compile.Level
	// CompileResult is a compiled program plus compiler statistics.
	CompileResult = compile.Result
	// Config describes the simulated machine (paper Table 1).
	Config = machine.Config
	// Machine is the simulated whole system.
	Machine = machine.Machine
	// CrashImage is the persistent state surviving a power failure.
	CrashImage = machine.CrashImage
	// RecoveryReport describes what recovery did.
	RecoveryReport = machine.RecoveryReport
	// Stats are the machine's runtime counters.
	Stats = machine.Stats
)

// Cumulative optimization levels (Figure 9 legend).
const (
	LevelRegion = compile.LevelRegion
	LevelCkpt   = compile.LevelCkpt
	LevelUnroll = compile.LevelUnroll
	LevelPrune  = compile.LevelPrune
	LevelLICM   = compile.LevelLICM
)

// HeapBase is where compiled workloads place heap data (see machine package
// memory map).
const HeapBase = machine.HeapBase

// StackBase returns the initial stack pointer for a hardware thread.
func StackBase(thread int) uint64 { return machine.StackBase(thread) }

// NewBuilder returns a Builder for a fresh program.
func NewBuilder(name string) *Builder { return prog.NewBuilder(name) }

// DefaultOptions returns the paper's default compiler configuration
// (threshold 256, all optimizations on).
func DefaultOptions() Options { return compile.DefaultOptions() }

// OptionsForLevel returns the compiler options matching a cumulative
// optimization level at the given store threshold.
func OptionsForLevel(l Level, threshold int) Options {
	return compile.OptionsForLevel(l, threshold)
}

// Compile runs the Capri compiler pipeline (region formation, checkpointing
// stores, speculative unrolling, pruning, LICM) over a copy of p.
func Compile(p *Program, opts Options) (*CompileResult, error) {
	return compile.Compile(p, opts)
}

// DefaultConfig returns the paper's Table 1 machine configuration.
func DefaultConfig() Config { return machine.DefaultConfig() }

// NewMachine builds a simulated machine for a compiled program.
func NewMachine(p *Program, cfg Config) (*Machine, error) {
	return machine.New(p, cfg)
}

// Recover rebuilds a runnable machine from a crash image using the paper's
// §5.4 recovery protocol (redo committed regions, undo the interrupted one,
// reload the register checkpoint array, resume at the last boundary).
func Recover(img *CrashImage) (*Machine, *RecoveryReport, error) {
	return machine.Recover(img)
}

// OutputDevice receives committed program output exactly once, in commit
// order — the machine's answer to the paper's open I/O problem (§3.3):
// external effects are released only when their region commits durably.
type OutputDevice = machine.OutputDevice

// RecoverWithDevices is Recover with output devices attached before the
// protocol replays committed-but-undrained regions, preserving exactly-once
// delivery across the crash.
func RecoverWithDevices(img *CrashImage, devices ...OutputDevice) (*Machine, *RecoveryReport, error) {
	return machine.Recover(img, devices...)
}

// WriteImage serializes a crash image (versioned gzip-JSON, embedding the
// compiled program) so whole-system persistence can span process lifetimes:
// what the battery-backed hardware preserves becomes a file.
func WriteImage(w io.Writer, img *CrashImage) error { return image.Write(w, img) }

// ReadImage deserializes a crash image written by WriteImage.
func ReadImage(r io.Reader) (*CrashImage, error) { return image.Read(r) }

// SaveImage writes a crash image to a file atomically.
func SaveImage(path string, img *CrashImage) error { return image.Save(path, img) }

// LoadImage reads a crash image from a file.
func LoadImage(path string) (*CrashImage, error) { return image.LoadFile(path) }
