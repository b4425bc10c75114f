package machine

import "capri/internal/isa"

// DebugRegs returns a copy of core t's architectural register file
// (test/debug helper).
func (m *Machine) DebugRegs(t int) [isa.NumRegs]uint64 {
	return m.cores[t].regs
}
