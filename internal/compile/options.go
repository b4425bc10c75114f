// Package compile implements the Capri compiler (paper §4): region formation
// bounded by a store-count threshold, register-checkpointing store insertion,
// speculative loop unrolling, optimal checkpoint pruning, and LICM-style
// checkpoint motion. The input is an ordinary program; the output is an
// equivalent program whose blocks carry region-boundary markers, OpBoundary /
// OpCkpt instructions, and recovery slices — everything the Capri
// architecture needs to make execution failure-atomic at region granularity.
package compile

import "fmt"

// Options selects the store threshold and which optimizations run. The
// zero value is not useful; start from DefaultOptions.
type Options struct {
	// Threshold is the maximum number of store-class instructions (regular
	// stores, atomics and checkpoint stores) allowed on any path through a
	// region. It also sizes the back-end proxy buffer (paper §5.2.2).
	Threshold int

	// InsertCheckpoints enables register-checkpointing stores (§4.2). With it
	// disabled the output has region boundaries only — the paper's "region"
	// configuration in Figures 9–11, which is not failure-atomic but isolates
	// the cost of boundary instructions.
	InsertCheckpoints bool

	// Unroll enables speculative loop unrolling (§4.3).
	Unroll bool

	// MaxUnroll caps the unroll factor. The paper's Figure 2 uses 3; larger
	// factors blow up code size and hurt the I-side, so production settings
	// stay small. Zero means automatic: scale with the threshold as
	// max(2, min(16, threshold/40)) — see autoMaxUnroll — so bigger proxy
	// buffers admit longer regions.
	MaxUnroll int

	// Prune enables optimal checkpoint pruning (§4.4.1).
	Prune bool

	// LICM enables moving loop-invariant defs and their checkpoints out of
	// loops (§4.4.2).
	LICM bool

	// NaiveRegions makes every basic block its own region — the strawman
	// whole-system-persistence baseline ("a naive approach may slow down the
	// benchmark up to 2X", §1.4). Threshold still applies to oversized
	// blocks.
	NaiveRegions bool

	// VerifyAfter selects extra semantic verification points: "" (final
	// program only — always checked), a pass name this pipeline runs (see
	// CheckPass), or VerifyAfterAll to check after every pass. Verification
	// never changes the compiled output.
	VerifyAfter string
}

// VerifyAfterAll is the Options.VerifyAfter value that runs the semantic
// verifier after every pass.
const VerifyAfterAll = "all"

// DefaultThreshold is the paper's default region store threshold.
const DefaultThreshold = 256

// DefaultOptions returns the paper's default configuration: threshold 256
// with every compiler optimization enabled.
func DefaultOptions() Options {
	return Options{
		Threshold:         DefaultThreshold,
		InsertCheckpoints: true,
		Unroll:            true,
		MaxUnroll:         0, // automatic
		Prune:             true,
		LICM:              true,
	}
}

// Level names a cumulative optimization level matching the paper's Figure 9
// legend: each level adds one technique on top of the previous.
type Level int

// Cumulative levels, in the order the paper plots them.
const (
	// LevelRegion places region boundaries only (blue bars).
	LevelRegion Level = iota
	// LevelCkpt adds register-checkpointing stores (yellow bars) — the first
	// failure-atomic configuration.
	LevelCkpt
	// LevelUnroll adds speculative loop unrolling.
	LevelUnroll
	// LevelPrune adds optimal checkpoint pruning.
	LevelPrune
	// LevelLICM adds checkpoint motion out of loops (purple bars; all
	// optimizations enabled).
	LevelLICM
)

// Levels lists all cumulative levels in plotting order.
var Levels = []Level{LevelRegion, LevelCkpt, LevelUnroll, LevelPrune, LevelLICM}

// String returns the figure-legend name of the level.
func (l Level) String() string {
	switch l {
	case LevelRegion:
		return "region"
	case LevelCkpt:
		return "+ckpt"
	case LevelUnroll:
		return "+unrolling"
	case LevelPrune:
		return "+pruning"
	case LevelLICM:
		return "+licm"
	}
	return "level?"
}

// ParseLevel returns the level whose figure-legend name is s.
func ParseLevel(s string) (Level, error) {
	for _, l := range Levels {
		if l.String() == s {
			return l, nil
		}
	}
	return 0, fmt.Errorf("unknown level %q", s)
}

// OptionsForLevel returns Options matching a cumulative level at the given
// threshold.
func OptionsForLevel(l Level, threshold int) Options {
	o := Options{Threshold: threshold}
	if l >= LevelCkpt {
		o.InsertCheckpoints = true
	}
	if l >= LevelUnroll {
		o.Unroll = true
	}
	if l >= LevelPrune {
		o.Prune = true
	}
	if l >= LevelLICM {
		o.LICM = true
	}
	return o
}
