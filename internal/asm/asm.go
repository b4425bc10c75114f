// Package asm provides a textual assembly format for Capri IR programs: a
// parser (Parse) and a formatter (Format) that round-trip through
// prog.Program. The format exists so programs can be written, inspected and
// committed as plain text instead of Go builder calls:
//
//	; comments run to end of line
//	func main          ; first block is the entry
//	b0:
//	    movi sp, #524288
//	    movi r1, #100
//	    br b1
//	b1:
//	    brif r0 ge r1 -> b3 else b2
//	b2:
//	    store [r2+0], r0
//	    addi r0, r0, #1
//	    br b1
//	b3:
//	    emit r0
//	    halt
//	thread main        ; one line per hardware thread
//
// Calls are written `call <funcname>`; return-site tokens are assigned by
// the parser. Compiler-inserted opcodes (rgn.boundary, ckpt) parse too, so
// compiled programs can be dumped and re-loaded.
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"capri/internal/isa"
	"capri/internal/prog"
)

// Parse assembles the source text into a verified program.
func Parse(name, src string) (*prog.Program, error) {
	p := &parser{name: name}
	if err := p.run(src); err != nil {
		return nil, err
	}
	return p.finish()
}

// MustParse is Parse for tests and examples.
func MustParse(name, src string) *prog.Program {
	p, err := Parse(name, src)
	if err != nil {
		panic(err)
	}
	return p
}

type pendingCall struct {
	fn     *prog.Func
	block  int
	index  int
	callee string
	line   int
}

type parser struct {
	name    string
	p       *prog.Program
	cur     *prog.Func
	curBlk  *prog.Block
	blocks  map[string]int // label -> block id in current function
	fixups  []blockFixup   // branch targets to resolve per function
	calls   []pendingCall
	threads []string
	line    int
}

type blockFixup struct {
	fn    *prog.Func
	block int
	index int
	label string // target label
	which int    // 0 = Target, 1 = Else
	line  int
}

func (ps *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("asm:%d: %s", ps.line, fmt.Sprintf(format, args...))
}

func (ps *parser) run(src string) error {
	ps.p = prog.New(ps.name)
	for i, raw := range strings.Split(src, "\n") {
		ps.line = i + 1
		line := raw
		if j := strings.IndexByte(line, ';'); j >= 0 {
			line = line[:j]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if err := ps.statement(line); err != nil {
			return err
		}
	}
	return nil
}

func (ps *parser) statement(line string) error {
	switch {
	case strings.HasPrefix(line, "func "):
		return ps.startFunc(strings.TrimSpace(line[5:]))
	case strings.HasPrefix(line, "thread "):
		ps.threads = append(ps.threads, strings.TrimSpace(line[7:]))
		return nil
	case strings.HasSuffix(line, ":") && !strings.ContainsAny(line, " \t"):
		return ps.startBlock(strings.TrimSuffix(line, ":"))
	default:
		return ps.instruction(line)
	}
}

func (ps *parser) startFunc(name string) error {
	if name == "" {
		return ps.errf("func needs a name")
	}
	if err := ps.endFunc(); err != nil {
		return err
	}
	if ps.p.FuncByName(name) != nil {
		return ps.errf("duplicate function %q", name)
	}
	ps.cur = ps.p.AddFunc(prog.NewFunc(name))
	ps.blocks = map[string]int{}
	ps.curBlk = nil
	return nil
}

// endFunc resolves the current function's branch labels.
func (ps *parser) endFunc() error {
	if ps.cur == nil {
		return nil
	}
	for _, fx := range ps.fixups {
		if fx.fn != ps.cur {
			continue
		}
		id, ok := ps.blocks[fx.label]
		if !ok {
			return fmt.Errorf("asm:%d: unknown block label %q", fx.line, fx.label)
		}
		in := &fx.fn.Blocks[fx.block].Insts[fx.index]
		if fx.which == 0 {
			in.Target = int32(id)
		} else {
			in.Else = int32(id)
		}
	}
	kept := ps.fixups[:0]
	for _, fx := range ps.fixups {
		if fx.fn != ps.cur {
			kept = append(kept, fx)
		}
	}
	ps.fixups = kept
	return nil
}

func (ps *parser) startBlock(label string) error {
	if ps.cur == nil {
		return ps.errf("block %q outside a function", label)
	}
	if _, dup := ps.blocks[label]; dup {
		return ps.errf("duplicate block label %q", label)
	}
	b := ps.cur.NewBlock()
	ps.blocks[label] = b.ID
	ps.curBlk = b
	return nil
}

// fields splits an operand list on commas, trimming whitespace.
func fields(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func (ps *parser) instruction(line string) error {
	if ps.curBlk == nil {
		return ps.errf("instruction outside a block: %q", line)
	}
	op := line
	rest := ""
	if j := strings.IndexAny(line, " \t"); j >= 0 {
		op, rest = line[:j], strings.TrimSpace(line[j+1:])
	}

	emit := func(in isa.Inst) {
		ps.curBlk.Insts = append(ps.curBlk.Insts, in)
	}

	switch op {
	case "add", "sub", "mul", "div", "rem", "and", "or", "xor", "shl", "shr", "min", "max":
		a := fields(rest)
		if len(a) != 3 {
			return ps.errf("%s wants rd, ra, rb", op)
		}
		rd, e1 := parseReg(a[0])
		ra, e2 := parseReg(a[1])
		rb, e3 := parseReg(a[2])
		if err := first(e1, e2, e3); err != nil {
			return ps.errf("%v", err)
		}
		emit(isa.Inst{Op: aluOps[op], Rd: rd, Ra: ra, Rb: rb})
	case "addi", "muli", "andi", "shli", "shri":
		a := fields(rest)
		if len(a) != 3 {
			return ps.errf("%s wants rd, ra, #imm", op)
		}
		rd, e1 := parseReg(a[0])
		ra, e2 := parseReg(a[1])
		imm, e3 := parseImm(a[2])
		if err := first(e1, e2, e3); err != nil {
			return ps.errf("%v", err)
		}
		emit(isa.Inst{Op: aluImmOps[op], Rd: rd, Ra: ra, Imm: imm})
	case "movi":
		a := fields(rest)
		if len(a) != 2 {
			return ps.errf("movi wants rd, #imm")
		}
		rd, e1 := parseReg(a[0])
		imm, e2 := parseImm(a[1])
		if err := first(e1, e2); err != nil {
			return ps.errf("%v", err)
		}
		emit(isa.Inst{Op: isa.OpMovI, Rd: rd, Imm: imm})
	case "mov":
		a := fields(rest)
		if len(a) != 2 {
			return ps.errf("mov wants rd, ra")
		}
		rd, e1 := parseReg(a[0])
		ra, e2 := parseReg(a[1])
		if err := first(e1, e2); err != nil {
			return ps.errf("%v", err)
		}
		emit(isa.Inst{Op: isa.OpMov, Rd: rd, Ra: ra})
	case "sel":
		// sel rd, ra ? rb : rc
		a := strings.FieldsFunc(rest, func(r rune) bool {
			return r == ',' || r == '?' || r == ':'
		})
		if len(a) != 4 {
			return ps.errf("sel wants rd, ra ? rb : rc")
		}
		rd, e1 := parseReg(strings.TrimSpace(a[0]))
		ra, e2 := parseReg(strings.TrimSpace(a[1]))
		rb, e3 := parseReg(strings.TrimSpace(a[2]))
		rc, e4 := parseReg(strings.TrimSpace(a[3]))
		if err := first(e1, e2, e3, e4); err != nil {
			return ps.errf("%v", err)
		}
		emit(isa.Inst{Op: isa.OpSel, Rd: rd, Ra: ra, Rb: rb, Rc: rc})
	case "load":
		// load rd, [ra+off]
		a := fields(rest)
		if len(a) != 2 {
			return ps.errf("load wants rd, [ra+off]")
		}
		rd, e1 := parseReg(a[0])
		ra, off, e2 := parseMem(a[1])
		if err := first(e1, e2); err != nil {
			return ps.errf("%v", err)
		}
		emit(isa.Inst{Op: isa.OpLoad, Rd: rd, Ra: ra, Imm: off})
	case "store":
		// store [ra+off], rb
		a := fields(rest)
		if len(a) != 2 {
			return ps.errf("store wants [ra+off], rb")
		}
		ra, off, e1 := parseMem(a[0])
		rb, e2 := parseReg(a[1])
		if err := first(e1, e2); err != nil {
			return ps.errf("%v", err)
		}
		emit(isa.Inst{Op: isa.OpStore, Ra: ra, Imm: off, Rb: rb})
	case "br":
		ps.fixups = append(ps.fixups, blockFixup{
			fn: ps.cur, block: ps.curBlk.ID, index: len(ps.curBlk.Insts),
			label: rest, which: 0, line: ps.line,
		})
		emit(isa.Inst{Op: isa.OpBr})
	case "brif":
		// brif ra cond rb -> then else other
		w := strings.Fields(rest)
		if len(w) != 7 || w[3] != "->" || w[5] != "else" {
			return ps.errf("brif wants: ra cond rb -> label else label")
		}
		ra, e1 := parseReg(w[0])
		cond, e2 := parseCond(w[1])
		rb, e3 := parseReg(w[2])
		if err := first(e1, e2, e3); err != nil {
			return ps.errf("%v", err)
		}
		idx := len(ps.curBlk.Insts)
		ps.fixups = append(ps.fixups,
			blockFixup{fn: ps.cur, block: ps.curBlk.ID, index: idx, label: w[4], which: 0, line: ps.line},
			blockFixup{fn: ps.cur, block: ps.curBlk.ID, index: idx, label: w[6], which: 1, line: ps.line},
		)
		emit(isa.Inst{Op: isa.OpBrIf, Cond: cond, Ra: ra, Rb: rb})
	case "call":
		if rest == "" {
			return ps.errf("call wants a function name")
		}
		ps.calls = append(ps.calls, pendingCall{
			fn: ps.cur, block: ps.curBlk.ID, index: len(ps.curBlk.Insts),
			callee: rest, line: ps.line,
		})
		emit(isa.Inst{Op: isa.OpCall})
	case "ret":
		emit(isa.Inst{Op: isa.OpRet})
	case "halt":
		emit(isa.Inst{Op: isa.OpHalt})
	case "fence":
		emit(isa.Inst{Op: isa.OpFence})
	case "amoadd":
		// amoadd rd, [ra+off], rb
		a := fields(rest)
		if len(a) != 3 {
			return ps.errf("amoadd wants rd, [ra+off], rb")
		}
		rd, e1 := parseReg(a[0])
		ra, off, e2 := parseMem(a[1])
		rb, e3 := parseReg(a[2])
		if err := first(e1, e2, e3); err != nil {
			return ps.errf("%v", err)
		}
		emit(isa.Inst{Op: isa.OpAtomicAdd, Rd: rd, Ra: ra, Imm: off, Rb: rb})
	case "amocas":
		// amocas rd, [ra+off], rb, rc
		a := fields(rest)
		if len(a) != 4 {
			return ps.errf("amocas wants rd, [ra+off], rb, rc")
		}
		rd, e1 := parseReg(a[0])
		ra, off, e2 := parseMem(a[1])
		rb, e3 := parseReg(a[2])
		rc, e4 := parseReg(a[3])
		if err := first(e1, e2, e3, e4); err != nil {
			return ps.errf("%v", err)
		}
		emit(isa.Inst{Op: isa.OpAtomicCAS, Rd: rd, Ra: ra, Imm: off, Rb: rb, Rc: rc})
	case "lock", "unlock":
		ra, off, err := parseMem(rest)
		if err != nil {
			return ps.errf("%s wants [ra+off]: %v", op, err)
		}
		o := isa.OpLock
		if op == "unlock" {
			o = isa.OpUnlock
		}
		emit(isa.Inst{Op: o, Ra: ra, Imm: off})
	case "barrier":
		emit(isa.Inst{Op: isa.OpBarrier})
	case "emit":
		ra, err := parseReg(rest)
		if err != nil {
			return ps.errf("%v", err)
		}
		emit(isa.Inst{Op: isa.OpEmit, Ra: ra})
	case "rgn.boundary":
		emit(isa.Inst{Op: isa.OpBoundary})
		ps.curBlk.BoundaryAt = true
	case "ckpt":
		ra, err := parseReg(rest)
		if err != nil {
			return ps.errf("%v", err)
		}
		emit(isa.Inst{Op: isa.OpCkpt, Ra: ra})
	default:
		return ps.errf("unknown mnemonic %q", op)
	}
	return nil
}

// finish resolves calls and threads, then verifies.
func (ps *parser) finish() (*prog.Program, error) {
	if err := ps.endFunc(); err != nil {
		return nil, err
	}
	for _, c := range ps.calls {
		callee := ps.p.FuncByName(c.callee)
		if callee == nil {
			return nil, fmt.Errorf("asm:%d: call to unknown function %q", c.line, c.callee)
		}
		tok := ps.p.AddRetSite(prog.RetSite{Func: c.fn.ID, Block: c.block, Index: c.index + 1})
		in := &c.fn.Blocks[c.block].Insts[c.index]
		in.Callee = int32(callee.ID)
		in.Imm = tok
	}
	for _, name := range ps.threads {
		f := ps.p.FuncByName(name)
		if f == nil {
			return nil, fmt.Errorf("asm: thread references unknown function %q", name)
		}
		ps.p.ThreadEntries = append(ps.p.ThreadEntries, f.ID)
	}
	if err := ps.p.Verify(); err != nil {
		return nil, fmt.Errorf("asm: %w", err)
	}
	return ps.p, nil
}

var aluOps = map[string]isa.Op{
	"add": isa.OpAdd, "sub": isa.OpSub, "mul": isa.OpMul, "div": isa.OpDiv,
	"rem": isa.OpRem, "and": isa.OpAnd, "or": isa.OpOr, "xor": isa.OpXor,
	"shl": isa.OpShl, "shr": isa.OpShr, "min": isa.OpMin, "max": isa.OpMax,
}

var aluImmOps = map[string]isa.Op{
	"addi": isa.OpAddI, "muli": isa.OpMulI, "andi": isa.OpAndI,
	"shli": isa.OpShlI, "shri": isa.OpShrI,
}

func parseReg(s string) (isa.Reg, error) {
	s = strings.TrimSpace(s)
	if s == "sp" {
		return isa.SP, nil
	}
	if !strings.HasPrefix(s, "r") {
		return 0, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= int(isa.NumRegs) {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return isa.Reg(n), nil
}

func parseImm(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "#") {
		return 0, fmt.Errorf("immediate must start with #: %q", s)
	}
	v, err := strconv.ParseInt(s[1:], 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", s)
	}
	return v, nil
}

// parseMem parses "[rN+off]" or "[rN-off]" or "[rN]".
func parseMem(s string) (isa.Reg, int64, error) {
	s = strings.TrimSpace(s)
	if len(s) < 3 || s[0] != '[' || s[len(s)-1] != ']' {
		return 0, 0, fmt.Errorf("memory operand must be [reg+off]: %q", s)
	}
	inner := s[1 : len(s)-1]
	sep := strings.IndexAny(inner[1:], "+-")
	if sep < 0 {
		r, err := parseReg(inner)
		return r, 0, err
	}
	sep++ // offset of the sign within inner
	r, err := parseReg(inner[:sep])
	if err != nil {
		return 0, 0, err
	}
	off, err := strconv.ParseInt(offsetText(inner[sep:]), 0, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad offset in %q", s)
	}
	return r, off, nil
}

// offsetText drops the "+" of "+-n", the form in which Format (through
// isa.Inst.String) writes a negative offset, so Parse reads back what
// Format writes.
func offsetText(s string) string {
	if strings.HasPrefix(s, "+-") {
		return s[1:]
	}
	return s
}

func parseCond(s string) (isa.Cond, error) {
	switch s {
	case "eq":
		return isa.CondEQ, nil
	case "ne":
		return isa.CondNE, nil
	case "lt":
		return isa.CondLT, nil
	case "le":
		return isa.CondLE, nil
	case "gt":
		return isa.CondGT, nil
	case "ge":
		return isa.CondGE, nil
	}
	return 0, fmt.Errorf("bad condition %q", s)
}

func first(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
