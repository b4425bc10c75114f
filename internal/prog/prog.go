// Package prog represents programs for the Capri toolchain: functions made of
// basic blocks over the capri/internal/isa instruction set, with an explicit
// control-flow graph. The Capri compiler transforms these programs (region
// formation, checkpoint insertion, unrolling) and the machine executes them.
//
// Calls are "lowered": OpCall pushes a return-site token onto an in-memory
// stack addressed through SP and jumps to the callee's entry block; OpRet pops
// the token and continues at the recorded (function, block, instruction)
// return site. Because the linkage lives in program memory, the entire
// machine state is registers + memory + PC — exactly the state Capri's
// whole-system persistence checkpoints and recovers.
package prog

import (
	"fmt"
	"maps"
	"strings"

	"capri/internal/isa"
	"capri/internal/slab"
)

// Block is a basic block: straight-line instructions ending in a terminator.
// Successor edges are encoded in the terminator (Target/Else) or implicitly
// for Call (control continues at the callee and returns to the next
// instruction).
type Block struct {
	ID    int
	Insts []isa.Inst

	// Region metadata, set by the compiler.
	//
	// BoundaryAt is true when a region boundary has been placed at the start
	// of this block. RecoverySlices, present only on boundary blocks, maps a
	// register whose checkpoint was pruned (paper §4.4.1) to the recovery
	// slice — re-executable instructions that reconstruct the register from
	// other checkpointed registers at recovery time.
	BoundaryAt     bool
	RecoverySlices map[isa.Reg][]isa.Inst
}

// Terminator returns the block's final instruction. Blocks under construction
// may not have one yet, in which case ok is false.
func (b *Block) Terminator() (*isa.Inst, bool) {
	if len(b.Insts) == 0 {
		return nil, false
	}
	in := &b.Insts[len(b.Insts)-1]
	if !in.IsTerminator() {
		return nil, false
	}
	return in, true
}

// Succs appends the IDs of this block's intra-function successors to dst.
// Ret and Halt have none; Call falls through to the same block's next
// instruction, so a Call never terminates a block in a verified program.
func (b *Block) Succs(dst []int) []int {
	t, ok := b.Terminator()
	if !ok {
		return dst
	}
	switch t.Op {
	case isa.OpBr:
		dst = append(dst, int(t.Target))
	case isa.OpBrIf:
		dst = append(dst, int(t.Target), int(t.Else))
	}
	return dst
}

// StoreCount returns the number of store-class instructions in the block
// (regular stores, atomics and checkpoint stores — everything the region
// threshold counts).
func (b *Block) StoreCount() int {
	n := 0
	for i := range b.Insts {
		if b.Insts[i].IsStore() {
			n++
		}
	}
	return n
}

// Func is a function: an entry block plus a body of blocks indexed by ID.
//
// A function owns the storage of its blocks and instruction lists: NewBlock
// and NewInsts carve them out of two per-function slabs, so a compiler pass
// that adds blocks or rewrites instruction lists allocates per slab chunk,
// not per block. A carved window stays valid as long as the function does.
type Func struct {
	ID     int
	Name   string
	Entry  int
	Blocks []*Block

	blockSlab []Block
	instSlab  []isa.Inst
}

// Slab chunk sizes: a fresh chunk holds at least this many blocks (or the
// function's current block count, whichever is larger) and this many
// instructions.
const (
	blockChunk = 16
	instChunk  = 256
)

// NewFunc returns an empty function with the given name.
func NewFunc(name string) *Func {
	return &Func{Name: name, Entry: 0}
}

// NewBlock appends a new empty block and returns it.
func (f *Func) NewBlock() *Block {
	b := &slab.Carve(&f.blockSlab, 1, max(blockChunk, len(f.Blocks)))[0]
	b.ID = len(f.Blocks)
	f.Blocks = append(f.Blocks, b)
	return b
}

// NewInsts returns n zeroed instructions carved from f's instruction slab,
// for a block's instruction list or a recovery slice. The window's cap is n,
// so appending past it copies rather than writing into a neighbouring
// window. Scratch that dies with a pass does not belong here: the chunk it
// would be carved from lives as long as any window in it.
func (f *Func) NewInsts(n int) []isa.Inst { return slab.Carve(&f.instSlab, n, instChunk) }

// Block returns the block with the given ID.
func (f *Func) Block(id int) *Block { return f.Blocks[id] }

// RetSite identifies the instruction after a call, where execution resumes on
// return: function ID, block ID, instruction index.
type RetSite struct {
	Func  int
	Block int
	Index int
}

// Program is a set of functions plus the call-return token table. Function 0
// of the designated entry is where each hardware thread begins (threads may
// have distinct entry functions).
type Program struct {
	Name     string
	Funcs    []*Func
	RetSites []RetSite // indexed by return-site token

	// ThreadEntries lists the entry function index for each hardware thread.
	// A single-threaded program has exactly one entry.
	ThreadEntries []int
}

// New returns an empty program with the given name.
func New(name string) *Program {
	return &Program{Name: name}
}

// AddFunc appends a function and assigns its ID.
func (p *Program) AddFunc(f *Func) *Func {
	f.ID = len(p.Funcs)
	p.Funcs = append(p.Funcs, f)
	return f
}

// FuncByName returns the function with the given name, or nil.
func (p *Program) FuncByName(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// AddRetSite registers a return site and returns its token.
func (p *Program) AddRetSite(s RetSite) int64 {
	p.RetSites = append(p.RetSites, s)
	return int64(len(p.RetSites) - 1)
}

// NumThreads returns the number of hardware threads the program wants.
func (p *Program) NumThreads() int {
	if len(p.ThreadEntries) == 0 {
		return 1
	}
	return len(p.ThreadEntries)
}

// EntryFunc returns the entry function index for the given thread.
func (p *Program) EntryFunc(thread int) int {
	if len(p.ThreadEntries) == 0 {
		return 0
	}
	return p.ThreadEntries[thread]
}

// Verify checks structural invariants: every block ends in a terminator,
// branch targets are in range, calls reference valid functions and return
// tokens, and no terminator appears mid-block. The compiler runs Verify after
// every pass; the machine refuses to load unverified programs.
func (p *Program) Verify() error {
	if len(p.Funcs) == 0 {
		return fmt.Errorf("prog %q: no functions", p.Name)
	}
	for _, te := range p.ThreadEntries {
		if te < 0 || te >= len(p.Funcs) {
			return fmt.Errorf("prog %q: thread entry f%d out of range", p.Name, te)
		}
	}
	for _, f := range p.Funcs {
		if len(f.Blocks) == 0 {
			return fmt.Errorf("func %s: no blocks", f.Name)
		}
		if f.Entry < 0 || f.Entry >= len(f.Blocks) {
			return fmt.Errorf("func %s: entry b%d out of range", f.Name, f.Entry)
		}
		for _, b := range f.Blocks {
			if len(b.Insts) == 0 {
				return fmt.Errorf("func %s b%d: empty block", f.Name, b.ID)
			}
			for i := range b.Insts {
				in := &b.Insts[i]
				last := i == len(b.Insts)-1
				if in.IsTerminator() != last {
					if last {
						return fmt.Errorf("func %s b%d: missing terminator (ends with %s)", f.Name, b.ID, in)
					}
					return fmt.Errorf("func %s b%d inst %d: terminator %s mid-block", f.Name, b.ID, i, in)
				}
				if !in.Op.Valid() {
					return fmt.Errorf("func %s b%d inst %d: invalid opcode", f.Name, b.ID, i)
				}
				switch in.Op {
				case isa.OpBr:
					if int(in.Target) < 0 || int(in.Target) >= len(f.Blocks) {
						return fmt.Errorf("func %s b%d: br target b%d out of range", f.Name, b.ID, in.Target)
					}
				case isa.OpBrIf:
					if int(in.Target) < 0 || int(in.Target) >= len(f.Blocks) ||
						int(in.Else) < 0 || int(in.Else) >= len(f.Blocks) {
						return fmt.Errorf("func %s b%d: brif targets b%d/b%d out of range", f.Name, b.ID, in.Target, in.Else)
					}
				case isa.OpCall:
					if int(in.Callee) < 0 || int(in.Callee) >= len(p.Funcs) {
						return fmt.Errorf("func %s b%d: call to f%d out of range", f.Name, b.ID, in.Callee)
					}
					if in.Imm < 0 || in.Imm >= int64(len(p.RetSites)) {
						return fmt.Errorf("func %s b%d: call token %d out of range", f.Name, b.ID, in.Imm)
					}
					// The token must resolve to a real instruction in the
					// caller. (The builder points it at the instruction after
					// the call; canonicalization may redirect it to the start
					// of a freshly split block.)
					rs := p.RetSites[in.Imm]
					if rs.Func != f.ID {
						return fmt.Errorf("func %s b%d inst %d: call token %d returns into f%d", f.Name, b.ID, i, in.Imm, rs.Func)
					}
					if rs.Block < 0 || rs.Block >= len(f.Blocks) ||
						rs.Index < 0 || rs.Index >= len(f.Blocks[rs.Block].Insts) {
						return fmt.Errorf("func %s b%d inst %d: call token %d maps to invalid site %+v", f.Name, b.ID, i, in.Imm, rs)
					}
				}
			}
		}
	}
	return nil
}

// Clone deep-copies the program so compiler passes can transform it without
// mutating the caller's copy. Each function's blocks come from one block
// array, and Compact gives its instruction lists and recovery slices one
// exactly sized instruction array.
func (p *Program) Clone() *Program {
	q := &Program{
		Name:          p.Name,
		RetSites:      append([]RetSite(nil), p.RetSites...),
		ThreadEntries: append([]int(nil), p.ThreadEntries...),
		Funcs:         make([]*Func, len(p.Funcs)),
	}
	for fi, f := range p.Funcs {
		g := &Func{ID: f.ID, Name: f.Name, Entry: f.Entry, Blocks: make([]*Block, len(f.Blocks))}
		blocks := make([]Block, len(f.Blocks))
		for i, b := range f.Blocks {
			blocks[i] = Block{ID: b.ID, Insts: b.Insts, BoundaryAt: b.BoundaryAt, RecoverySlices: maps.Clone(b.RecoverySlices)}
			g.Blocks[i] = &blocks[i]
		}
		g.Compact() // copies the instruction lists and slices shared so far
		q.Funcs[fi] = g
	}
	return q
}

// Compact moves every instruction list and recovery slice of f into one
// exactly sized array, copying them. A pass that replaces a list leaves the
// old window dead in the chunk it was carved from, and the chunk lives as
// long as any window in it; compacting a finished function lets every such
// chunk go.
func (f *Func) Compact() {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Insts)
		for _, s := range b.RecoverySlices {
			n += len(s)
		}
	}
	f.instSlab = make([]isa.Inst, n)
	for _, b := range f.Blocks {
		b.Insts = append(f.NewInsts(len(b.Insts))[:0], b.Insts...)
		for r, s := range b.RecoverySlices {
			b.RecoverySlices[r] = append(f.NewInsts(len(s))[:0], s...)
		}
	}
}

// StaticStats summarises the static shape of a program.
type StaticStats struct {
	Funcs      int
	Blocks     int
	Insts      int
	Stores     int // regular stores + atomics
	Ckpts      int // checkpoint stores
	Boundaries int // blocks with a region boundary
}

// Stats computes StaticStats for the program.
func (p *Program) Stats() StaticStats {
	var s StaticStats
	s.Funcs = len(p.Funcs)
	for _, f := range p.Funcs {
		s.Blocks += len(f.Blocks)
		for _, b := range f.Blocks {
			s.Insts += len(b.Insts)
			if b.BoundaryAt {
				s.Boundaries++
			}
			for i := range b.Insts {
				switch {
				case b.Insts[i].Op == isa.OpCkpt:
					s.Ckpts++
				case b.Insts[i].IsRegularStore():
					s.Stores++
				}
			}
		}
	}
	return s
}

// String disassembles the whole program.
func (p *Program) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "program %s\n", p.Name)
	for _, f := range p.Funcs {
		fmt.Fprintf(&sb, "func f%d %s (entry b%d):\n", f.ID, f.Name, f.Entry)
		for _, b := range f.Blocks {
			marker := ""
			if b.BoundaryAt {
				marker = "  ; <region boundary>"
			}
			fmt.Fprintf(&sb, "  b%d:%s\n", b.ID, marker)
			for i := range b.Insts {
				fmt.Fprintf(&sb, "    %s\n", b.Insts[i].String())
			}
		}
	}
	return sb.String()
}
