package capri

// Whole-machine differential: every paper benchmark runs uncompiled on the
// baseline machine and Capri-compiled on the Capri machine, and the two must
// agree on everything the program can observe. The shared helpers below
// (diffConfig, machineImage, requireIdentical) serve the root package's
// other equivalence suites: dispatch, resume and schedule.

import (
	"reflect"
	"testing"

	"capri/internal/compile"
	"capri/internal/machine"
	"capri/internal/workload"
)

// diffConfig mirrors the figures harness configuration (shrunken caches) so
// the equivalence runs cover the same hierarchy behavior the figures exercise.
func diffConfig(threads, threshold int) machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Capri = true
	cfg.Threshold = threshold
	if threads > cfg.Cores {
		cfg.Cores = threads
	}
	cfg.L2Size = 2 << 20
	cfg.DRAMSize = 16 << 20
	return cfg
}

// machineImage is everything an equivalence comparison must find identical.
type machineImage struct {
	Cycles  uint64
	Instret uint64
	Mem     map[uint64]uint64
	NVM     map[uint64]uint64
	Outputs [][]uint64
}

func imageOf(m *machine.Machine, threads int) machineImage {
	img := machineImage{
		Cycles:  m.Cycles(),
		Instret: m.Instret(),
		Mem:     m.MemSnapshot(),
		NVM:     m.NVMSnapshot(),
	}
	for t := 0; t < threads; t++ {
		img.Outputs = append(img.Outputs, m.Output(t))
	}
	return img
}

// requireIdentical fails unless two runs of one program on one
// configuration ended in the same cycle count, instruction count, memory and
// NVM images and committed output.
func requireIdentical(t *testing.T, what string, got, want machineImage) {
	t.Helper()
	if got.Cycles != want.Cycles {
		t.Errorf("%s: cycles diverge: %d vs %d", what, got.Cycles, want.Cycles)
	}
	if got.Instret != want.Instret {
		t.Errorf("%s: instret diverge: %d vs %d", what, got.Instret, want.Instret)
	}
	if !reflect.DeepEqual(got.Mem, want.Mem) {
		t.Errorf("%s: architectural memory images diverge (%d vs %d words)", what, len(got.Mem), len(want.Mem))
	}
	if !reflect.DeepEqual(got.NVM, want.NVM) {
		t.Errorf("%s: NVM images diverge (%d vs %d words)", what, len(got.NVM), len(want.NVM))
	}
	if !reflect.DeepEqual(got.Outputs, want.Outputs) {
		t.Errorf("%s: committed outputs diverge", what)
	}
}

// TestDifferentialBenchmarks runs every paper benchmark (all 21 stand-ins)
// twice: the source program on the baseline machine, and the program the
// Capri compiler produced on the Capri machine. The compiler's checkpoints
// and the persistence hardware must be invisible to the program — same
// committed output, same final architectural memory — and at completion the
// Capri machine's NVM must hold exactly that memory image.
func TestDifferentialBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("differential benchmark sweep is not short")
	}
	for _, b := range workload.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			src := b.Build(benchScale)
			res, err := compile.Compile(src, compile.OptionsForLevel(compile.LevelLICM, 256))
			if err != nil {
				t.Fatal(err)
			}
			run := func(p *Program, cfg machine.Config) machineImage {
				m, err := machine.New(p, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Run(); err != nil {
					t.Fatal(err)
				}
				return imageOf(m, b.Threads)
			}
			baseCfg := diffConfig(b.Threads, 256)
			baseCfg.Capri = false
			base := run(src, baseCfg)
			capri := run(res.Program, diffConfig(b.Threads, 256))
			if !reflect.DeepEqual(capri.Outputs, base.Outputs) {
				t.Errorf("committed outputs diverge from the baseline run")
			}
			if !reflect.DeepEqual(capri.Mem, base.Mem) {
				t.Errorf("architectural memory diverges from the baseline run (%d vs %d words)", len(capri.Mem), len(base.Mem))
			}
			if !reflect.DeepEqual(capri.NVM, capri.Mem) {
				t.Errorf("NVM image at completion is not the architectural image (%d vs %d words)", len(capri.NVM), len(capri.Mem))
			}
		})
	}
}
