package machine

import "capri/internal/isa"

// DebugRegs returns a copy of core t's architectural register file
// (test/debug helper).
func (m *Machine) DebugRegs(t int) [isa.NumRegs]uint64 {
	return m.cores[t].regs
}

// DebugPC returns core t's current program counter (test/debug helper).
func (m *Machine) DebugPC(t int) (fn, blk, idx int) {
	c := m.cores[t]
	return c.fn, c.blk, c.idx
}
