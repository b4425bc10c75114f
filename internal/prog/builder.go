package prog

import (
	"fmt"

	"capri/internal/isa"
)

// Builder constructs programs with correct call tokens and terminators. It is
// the front end our synthetic workloads use in place of a real parser: each
// workload generator emits IR through a Builder and the result goes straight
// into the Capri compiler.
type Builder struct {
	p *Program
}

// NewBuilder returns a Builder for a fresh program.
func NewBuilder(name string) *Builder {
	return &Builder{p: New(name)}
}

// Program finalizes and returns the built program, verifying it first.
// It panics on a malformed program: builder misuse is a programming error in
// a workload generator, not a runtime condition.
func (bd *Builder) Program() *Program {
	if err := bd.p.Verify(); err != nil {
		panic(fmt.Sprintf("prog.Builder: %v", err))
	}
	return bd.p
}

// SetThreadEntries declares the per-thread entry functions.
func (bd *Builder) SetThreadEntries(funcs ...*FuncBuilder) {
	bd.p.ThreadEntries = bd.p.ThreadEntries[:0]
	for _, f := range funcs {
		bd.p.ThreadEntries = append(bd.p.ThreadEntries, f.f.ID)
	}
}

// Func starts a new function. The first block created becomes the entry.
func (bd *Builder) Func(name string) *FuncBuilder {
	f := bd.p.AddFunc(NewFunc(name))
	return &FuncBuilder{bd: bd, f: f}
}

// FuncBuilder builds one function block by block.
type FuncBuilder struct {
	bd  *Builder
	f   *Func
	cur *Block
}

// Raw returns the underlying function (for tests that poke at internals).
func (fb *FuncBuilder) Raw() *Func { return fb.f }

// ID returns the function's index in the program.
func (fb *FuncBuilder) ID() int { return fb.f.ID }

// Block creates a new basic block and makes it current.
func (fb *FuncBuilder) Block() *Block {
	b := fb.f.NewBlock()
	fb.cur = b
	return b
}

// SetBlock switches emission to an existing block.
func (fb *FuncBuilder) SetBlock(b *Block) { fb.cur = b }

// Cur returns the block currently being emitted into.
func (fb *FuncBuilder) Cur() *Block { return fb.cur }

func (fb *FuncBuilder) emit(in isa.Inst) {
	if fb.cur == nil {
		fb.Block()
	}
	fb.cur.Insts = append(fb.cur.Insts, in)
}

// --- ALU ---

// Op3 emits a three-register ALU operation rd = ra op rb.
func (fb *FuncBuilder) Op3(op isa.Op, rd, ra, rb isa.Reg) {
	fb.emit(isa.Inst{Op: op, Rd: rd, Ra: ra, Rb: rb})
}

// OpI emits a register-immediate ALU operation rd = ra op imm.
func (fb *FuncBuilder) OpI(op isa.Op, rd, ra isa.Reg, imm int64) {
	fb.emit(isa.Inst{Op: op, Rd: rd, Ra: ra, Imm: imm})
}

// MovI emits rd = imm.
func (fb *FuncBuilder) MovI(rd isa.Reg, imm int64) {
	fb.emit(isa.Inst{Op: isa.OpMovI, Rd: rd, Imm: imm})
}

// Mov emits rd = ra.
func (fb *FuncBuilder) Mov(rd, ra isa.Reg) {
	fb.emit(isa.Inst{Op: isa.OpMov, Rd: rd, Ra: ra})
}

// Add emits rd = ra + rb.
func (fb *FuncBuilder) Add(rd, ra, rb isa.Reg) { fb.Op3(isa.OpAdd, rd, ra, rb) }

// AddI emits rd = ra + imm.
func (fb *FuncBuilder) AddI(rd, ra isa.Reg, imm int64) { fb.OpI(isa.OpAddI, rd, ra, imm) }

// Mul emits rd = ra * rb.
func (fb *FuncBuilder) Mul(rd, ra, rb isa.Reg) { fb.Op3(isa.OpMul, rd, ra, rb) }

// MulI emits rd = ra * imm.
func (fb *FuncBuilder) MulI(rd, ra isa.Reg, imm int64) { fb.OpI(isa.OpMulI, rd, ra, imm) }

// AndI emits rd = ra & imm.
func (fb *FuncBuilder) AndI(rd, ra isa.Reg, imm int64) { fb.OpI(isa.OpAndI, rd, ra, imm) }

// Sel emits rd = ra != 0 ? rb : rc.
func (fb *FuncBuilder) Sel(rd, ra, rb, rc isa.Reg) {
	fb.emit(isa.Inst{Op: isa.OpSel, Rd: rd, Ra: ra, Rb: rb, Rc: rc})
}

// --- Memory ---

// Load emits rd = mem[ra+off].
func (fb *FuncBuilder) Load(rd, ra isa.Reg, off int64) {
	fb.emit(isa.Inst{Op: isa.OpLoad, Rd: rd, Ra: ra, Imm: off})
}

// Store emits mem[ra+off] = rb.
func (fb *FuncBuilder) Store(ra isa.Reg, off int64, rb isa.Reg) {
	fb.emit(isa.Inst{Op: isa.OpStore, Ra: ra, Imm: off, Rb: rb})
}

// --- Control flow ---

// Br emits an unconditional branch to b.
func (fb *FuncBuilder) Br(b *Block) {
	fb.emit(isa.Inst{Op: isa.OpBr, Target: int32(b.ID)})
}

// BrIf emits a conditional branch: if ra cond rb goto then, else goto els.
func (fb *FuncBuilder) BrIf(ra isa.Reg, cond isa.Cond, rb isa.Reg, then, els *Block) {
	fb.emit(isa.Inst{
		Op: isa.OpBrIf, Cond: cond, Ra: ra, Rb: rb,
		Target: int32(then.ID), Else: int32(els.ID),
	})
}

// Call emits a call to the callee, registering the return site token for the
// instruction that follows.
func (fb *FuncBuilder) Call(callee *FuncBuilder) {
	if fb.cur == nil {
		fb.Block()
	}
	tok := fb.bd.p.AddRetSite(RetSite{
		Func:  fb.f.ID,
		Block: fb.cur.ID,
		Index: len(fb.cur.Insts) + 1,
	})
	fb.emit(isa.Inst{Op: isa.OpCall, Callee: int32(callee.f.ID), Imm: tok})
}

// Ret emits a return.
func (fb *FuncBuilder) Ret() { fb.emit(isa.Inst{Op: isa.OpRet}) }

// Halt emits a thread halt.
func (fb *FuncBuilder) Halt() { fb.emit(isa.Inst{Op: isa.OpHalt}) }

// --- Synchronization ---

// Fence emits a full memory fence.
func (fb *FuncBuilder) Fence() { fb.emit(isa.Inst{Op: isa.OpFence}) }

// AtomicAdd emits rd = fetch-and-add(mem[ra+off], rb).
func (fb *FuncBuilder) AtomicAdd(rd, ra isa.Reg, off int64, rb isa.Reg) {
	fb.emit(isa.Inst{Op: isa.OpAtomicAdd, Rd: rd, Ra: ra, Imm: off, Rb: rb})
}

// AtomicCAS emits rd = old; if old == rb then mem[ra+off] = rc.
func (fb *FuncBuilder) AtomicCAS(rd, ra isa.Reg, off int64, rb, rc isa.Reg) {
	fb.emit(isa.Inst{Op: isa.OpAtomicCAS, Rd: rd, Ra: ra, Imm: off, Rb: rb, Rc: rc})
}

// Lock emits a spin-lock acquire on mem[ra+off].
func (fb *FuncBuilder) Lock(ra isa.Reg, off int64) {
	fb.emit(isa.Inst{Op: isa.OpLock, Ra: ra, Imm: off})
}

// Unlock emits a spin-lock release on mem[ra+off].
func (fb *FuncBuilder) Unlock(ra isa.Reg, off int64) {
	fb.emit(isa.Inst{Op: isa.OpUnlock, Ra: ra, Imm: off})
}

// Emit appends ra to the program output tape.
func (fb *FuncBuilder) Emit(ra isa.Reg) { fb.emit(isa.Inst{Op: isa.OpEmit, Ra: ra}) }
