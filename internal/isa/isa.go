// Package isa defines the register-machine instruction set used throughout
// the Capri reproduction. The ISA is a small RISC-like, word-oriented machine
// modeled loosely after ARMv8 (the paper's target): 32 architectural
// registers, 64-bit words, load/store architecture, explicit fences and
// atomics. It exists so the compiler half of Capri (region formation,
// checkpointing stores, speculative loop unrolling, checkpoint pruning, LICM)
// can operate on realistic control-flow graphs, and so the architecture half
// (proxy buffers, two-phase atomic stores, crash recovery) can observe every
// store the program executes.
package isa

import "fmt"

// Reg names an architectural register. The machine has NumRegs general
// registers r0..r30 plus SP (r31), which the call-lowering convention uses as
// the in-memory stack pointer. Register checkpoints are indexed by Reg into a
// fixed NVM array (paper §4.2: "r0 is mapped into the index zero").
type Reg uint8

// NumRegs is the number of architectural registers. It is statically fixed in
// the ISA, which is what makes the paper's global checkpoint array feasible.
const NumRegs = 32

// SP is the stack-pointer register used by the call lowering convention.
const SP Reg = 31

// Conventional argument/return registers (callee receives args in A0..A5 and
// returns results in A0..A1). These are conventions of our workload
// generators, not constraints of the ISA.
const (
	A0 Reg = iota
	A1
	A2
	A3
	A4
	A5
)

// String renders a register in the conventional rN / sp form.
func (r Reg) String() string {
	if r == SP {
		return "sp"
	}
	return fmt.Sprintf("r%d", r)
}

// Valid reports whether r names an architectural register.
func (r Reg) Valid() bool { return r < NumRegs }

// Op is an instruction opcode.
type Op uint8

// Opcodes. The set is deliberately small but covers everything the Capri
// compiler cares about: ALU ops (re-executable, hence prunable checkpoints),
// loads and stores (the region criterion counts stores), control flow
// (region boundaries live at block granularity), calls/returns (mandatory
// boundaries), fences and atomics (mandatory boundaries for multi-threaded
// correctness), and the two instructions the Capri compiler itself inserts:
// region boundaries and checkpoint stores.
const (
	OpInvalid Op = iota

	// ALU register-register: Rd = Ra <op> Rb.
	OpAdd
	OpSub
	OpMul
	OpDiv // divide-by-zero yields 0, like ARM UDIV
	OpRem // remainder; modulo-by-zero yields 0
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpMin
	OpMax

	// ALU register-immediate: Rd = Ra <op> Imm.
	OpAddI
	OpMulI
	OpAndI
	OpShlI
	OpShrI

	// Data movement.
	OpMovI // Rd = Imm
	OpMov  // Rd = Ra
	OpSel  // Rd = (Ra != 0) ? Rb : Rc  (conditional select, re-executable)

	// Memory. Effective address is Ra + Imm (bytes, word aligned).
	OpLoad  // Rd = mem[Ra+Imm]
	OpStore // mem[Ra+Imm] = Rb

	// Control flow. Branches terminate basic blocks.
	OpBr   // unconditional branch to Target
	OpBrIf // branch to Target if "Ra <cond> Rb", else fall to Else
	OpCall // call function Callee (return linkage via in-memory stack)
	OpRet  // return via in-memory stack
	OpHalt // stop this hardware thread

	// Synchronization. All of these are mandatory region boundaries.
	OpFence     // full memory fence
	OpAtomicAdd // Rd = fetch-and-add(mem[Ra+Imm], Rb)
	OpAtomicCAS // Rd = old; if old == Rb then mem[Ra+Imm] = Rc (old in Rd)
	OpLock      // acquire spin-lock word at Ra+Imm
	OpUnlock    // release spin-lock word at Ra+Imm
	OpBarrier   // global barrier across all running threads

	// Output. Appends Ra to the program's output tape. Output is part of the
	// golden-state comparison in crash tests.
	OpEmit

	// Compiler-inserted instructions.
	OpBoundary // region boundary (paper §3.2); also checkpoints the PC
	OpCkpt     // checkpoint store of register Ra to its NVM checkpoint slot

	opMax
)

var opNames = [...]string{
	OpInvalid:   "invalid",
	OpAdd:       "add",
	OpSub:       "sub",
	OpMul:       "mul",
	OpDiv:       "div",
	OpRem:       "rem",
	OpAnd:       "and",
	OpOr:        "or",
	OpXor:       "xor",
	OpShl:       "shl",
	OpShr:       "shr",
	OpMin:       "min",
	OpMax:       "max",
	OpAddI:      "addi",
	OpMulI:      "muli",
	OpAndI:      "andi",
	OpShlI:      "shli",
	OpShrI:      "shri",
	OpMovI:      "movi",
	OpMov:       "mov",
	OpSel:       "sel",
	OpLoad:      "load",
	OpStore:     "store",
	OpBr:        "br",
	OpBrIf:      "brif",
	OpCall:      "call",
	OpRet:       "ret",
	OpHalt:      "halt",
	OpFence:     "fence",
	OpAtomicAdd: "amoadd",
	OpAtomicCAS: "amocas",
	OpLock:      "lock",
	OpUnlock:    "unlock",
	OpBarrier:   "barrier",
	OpEmit:      "emit",
	OpBoundary:  "rgn.boundary",
	OpCkpt:      "ckpt",
}

// String returns the mnemonic for op.
func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Valid reports whether op is a defined opcode.
func (op Op) Valid() bool { return op > OpInvalid && op < opMax }

// Cond is a comparison condition for OpBrIf.
type Cond uint8

// Conditions compare Ra against Rb (unsigned-as-signed int64 semantics).
const (
	CondEQ Cond = iota
	CondNE
	CondLT
	CondLE
	CondGT
	CondGE
)

var condNames = [...]string{"eq", "ne", "lt", "le", "gt", "ge"}

// String returns the condition mnemonic.
func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cond(%d)", uint8(c))
}

// Eval applies the condition to two values using signed semantics.
func (c Cond) Eval(a, b uint64) bool {
	sa, sb := int64(a), int64(b)
	switch c {
	case CondEQ:
		return sa == sb
	case CondNE:
		return sa != sb
	case CondLT:
		return sa < sb
	case CondLE:
		return sa <= sb
	case CondGT:
		return sa > sb
	case CondGE:
		return sa >= sb
	}
	return false
}

// Inst is one instruction. A compact fixed-shape struct keeps the
// interpreter's hot loop cache-friendly.
//
// Field usage by opcode family:
//
//	ALU rrr:   Rd = Ra op Rb            (OpSel additionally reads Rc)
//	ALU rri:   Rd = Ra op Imm
//	MovI:      Rd = Imm
//	Load:      Rd = mem[Ra+Imm]
//	Store:     mem[Ra+Imm] = Rb
//	Br:        Target
//	BrIf:      if Ra Cond Rb -> Target else Else
//	Call:      Callee (function index), Imm = return-site token
//	AtomicAdd: Rd = old(mem[Ra+Imm]); mem += Rb
//	AtomicCAS: Rd = old; if old == Rb, mem[Ra+Imm] = Rc
//	Ckpt:      Ra = register being checkpointed
type Inst struct {
	Op     Op
	Cond   Cond
	Rd     Reg
	Ra     Reg
	Rb     Reg
	Rc     Reg
	Imm    int64
	Target int32 // block index within function
	Else   int32 // fall-through block for BrIf
	Callee int32 // function index for Call
}

// IsStore reports whether the instruction is counted against the region store
// threshold. Per paper §3.2 the threshold counts "both regular and
// checkpointing stores"; atomics also write memory.
func (in *Inst) IsStore() bool {
	switch in.Op {
	case OpStore, OpCkpt, OpAtomicAdd, OpAtomicCAS:
		return true
	}
	return false
}

// IsRegularStore reports whether the instruction writes program memory
// through the front-end proxy path (checkpoint stores use the dedicated
// register-file storage instead; paper §5.2.1 optimizations).
func (in *Inst) IsRegularStore() bool {
	switch in.Op {
	case OpStore, OpAtomicAdd, OpAtomicCAS:
		return true
	}
	return false
}

// IsMandatoryBoundary reports whether the Capri compiler must place a region
// boundary at this instruction (paper §4.1: fences and atomic operations).
func (in *Inst) IsMandatoryBoundary() bool {
	switch in.Op {
	case OpFence, OpAtomicAdd, OpAtomicCAS, OpLock, OpUnlock, OpBarrier:
		return true
	}
	return false
}

// IsTerminator reports whether the instruction ends a basic block.
func (in *Inst) IsTerminator() bool {
	switch in.Op {
	case OpBr, OpBrIf, OpRet, OpHalt:
		return true
	}
	return false
}

// Def returns the register defined by the instruction and whether it defines
// one at all.
func (in *Inst) Def() (Reg, bool) {
	switch in.Op {
	case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor, OpShl, OpShr,
		OpMin, OpMax, OpAddI, OpMulI, OpAndI, OpShlI, OpShrI, OpMovI, OpMov,
		OpSel, OpLoad, OpAtomicAdd, OpAtomicCAS:
		return in.Rd, true
	}
	return 0, false
}

// Uses appends the registers read by the instruction to dst and returns it.
// Call/Ret implicitly use SP (the call lowering pushes/pops the return token
// through memory).
func (in *Inst) Uses(dst []Reg) []Reg {
	switch in.Op {
	case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor, OpShl, OpShr, OpMin, OpMax:
		dst = append(dst, in.Ra, in.Rb)
	case OpAddI, OpMulI, OpAndI, OpShlI, OpShrI, OpMov:
		dst = append(dst, in.Ra)
	case OpMovI:
	case OpSel:
		dst = append(dst, in.Ra, in.Rb, in.Rc)
	case OpLoad:
		dst = append(dst, in.Ra)
	case OpStore:
		dst = append(dst, in.Ra, in.Rb)
	case OpBrIf:
		dst = append(dst, in.Ra, in.Rb)
	case OpCall, OpRet:
		dst = append(dst, SP)
	case OpAtomicAdd:
		dst = append(dst, in.Ra, in.Rb)
	case OpAtomicCAS:
		dst = append(dst, in.Ra, in.Rb, in.Rc)
	case OpLock, OpUnlock:
		dst = append(dst, in.Ra)
	case OpEmit:
		dst = append(dst, in.Ra)
	case OpCkpt:
		dst = append(dst, in.Ra)
	}
	return dst
}

// IsReexecutable reports whether the instruction can be safely re-executed at
// recovery time from checkpointed operand values, i.e. it is a pure function
// of its register operands. Checkpoint pruning (paper §4.4.1) may only prune
// a checkpoint whose backward slice consists of such instructions.
func (in *Inst) IsReexecutable() bool {
	switch in.Op {
	case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor, OpShl, OpShr,
		OpMin, OpMax, OpAddI, OpMulI, OpAndI, OpShlI, OpShrI, OpMovI, OpMov, OpSel:
		return true
	}
	return false
}

// String disassembles the instruction.
func (in *Inst) String() string {
	switch in.Op {
	case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor, OpShl, OpShr, OpMin, OpMax:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Rd, in.Ra, in.Rb)
	case OpAddI, OpMulI, OpAndI, OpShlI, OpShrI:
		return fmt.Sprintf("%s %s, %s, #%d", in.Op, in.Rd, in.Ra, in.Imm)
	case OpMovI:
		return fmt.Sprintf("movi %s, #%d", in.Rd, in.Imm)
	case OpMov:
		return fmt.Sprintf("mov %s, %s", in.Rd, in.Ra)
	case OpSel:
		return fmt.Sprintf("sel %s, %s ? %s : %s", in.Rd, in.Ra, in.Rb, in.Rc)
	case OpLoad:
		return fmt.Sprintf("load %s, [%s+%d]", in.Rd, in.Ra, in.Imm)
	case OpStore:
		return fmt.Sprintf("store [%s+%d], %s", in.Ra, in.Imm, in.Rb)
	case OpBr:
		return fmt.Sprintf("br b%d", in.Target)
	case OpBrIf:
		return fmt.Sprintf("brif %s %s %s -> b%d else b%d", in.Ra, in.Cond, in.Rb, in.Target, in.Else)
	case OpCall:
		return fmt.Sprintf("call f%d (tok %d)", in.Callee, in.Imm)
	case OpAtomicAdd:
		return fmt.Sprintf("amoadd %s, [%s+%d], %s", in.Rd, in.Ra, in.Imm, in.Rb)
	case OpAtomicCAS:
		return fmt.Sprintf("amocas %s, [%s+%d], %s, %s", in.Rd, in.Ra, in.Imm, in.Rb, in.Rc)
	case OpLock:
		return fmt.Sprintf("lock [%s+%d]", in.Ra, in.Imm)
	case OpUnlock:
		return fmt.Sprintf("unlock [%s+%d]", in.Ra, in.Imm)
	case OpEmit:
		return fmt.Sprintf("emit %s", in.Ra)
	case OpCkpt:
		return fmt.Sprintf("ckpt %s", in.Ra)
	default:
		return in.Op.String()
	}
}
