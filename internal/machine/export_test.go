package machine

import (
	"fmt"

	"capri/internal/prog"
)

// DebugPC returns core t's current program counter.
func (m *Machine) DebugPC(t int) (fn, blk, idx int) {
	c := m.cores[t]
	return c.fn, c.blk, c.idx
}

// ReplaceProgram swaps the loaded program in place between RunUntil
// segments, as a hot patch would. The new program must be
// position-compatible with every core's current PC. All decoded code and
// per-core block caches are dropped: nothing decoded from the old program
// may execute afterwards.
func (m *Machine) ReplaceProgram(p *prog.Program) error {
	for _, c := range m.cores {
		if c.halted {
			continue
		}
		if c.fn >= len(p.Funcs) || c.blk >= len(p.Funcs[c.fn].Blocks) ||
			c.idx > len(p.Funcs[c.fn].Blocks[c.blk].Insts) {
			return fmt.Errorf("machine: core %d PC f%d b%d i%d outside replacement program", c.id, c.fn, c.blk, c.idx)
		}
	}
	m.prog = p
	m.invalidateDecode()
	return nil
}

// invalidateDecode drops every decoded-code cache in the machine: the shared
// per-program thunk cache and each core's current-block caches. resumeAt
// covers the per-core half on recovery.
func (m *Machine) invalidateDecode() {
	m.dec = nil
	for _, c := range m.cores {
		c.invalidateBlockCache()
	}
}
