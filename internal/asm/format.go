package asm

import (
	"fmt"
	"strings"

	"capri/internal/isa"
	"capri/internal/prog"
)

// Format renders a program in the textual assembly syntax accepted by Parse.
// Block labels are bN per function; call operands use function names. The
// round trip Parse(Format(p)) yields a structurally identical program
// (recovery slices, which have no textual form, are the one exception and
// are emitted as comments, in ascending register order).
func Format(p *prog.Program) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "; program %s\n", p.Name)
	for _, f := range p.Funcs {
		fmt.Fprintf(&sb, "func %s\n", funcName(p, f.ID))
		for _, b := range f.Blocks {
			fmt.Fprintf(&sb, "b%d:\n", b.ID)
			for _, s := range b.RecoverySlices {
				fmt.Fprintf(&sb, "    ; recovery slice for %s (%d insts)\n", s.Reg, len(s.Insts))
			}
			for i := range b.Insts {
				fmt.Fprintf(&sb, "    %s\n", formatInst(p, &b.Insts[i]))
			}
		}
	}
	for t := 0; t < p.NumThreads(); t++ {
		fmt.Fprintf(&sb, "thread %s\n", funcName(p, p.EntryFunc(t)))
	}
	return sb.String()
}

// funcName returns a unique textual name for a function (its declared name,
// disambiguated by ID when several functions share one).
func funcName(p *prog.Program, id int) string {
	name := p.Funcs[id].Name
	for _, f := range p.Funcs {
		if f.Name == name && f.ID != id {
			return fmt.Sprintf("%s#%d", name, id)
		}
	}
	return name
}

func formatInst(p *prog.Program, in *isa.Inst) string {
	switch in.Op {
	case isa.OpBr:
		return fmt.Sprintf("br b%d", in.Target)
	case isa.OpBrIf:
		return fmt.Sprintf("brif %s %s %s -> b%d else b%d", in.Ra, in.Cond, in.Rb, in.Target, in.Else)
	case isa.OpCall:
		return fmt.Sprintf("call %s", funcName(p, int(in.Callee)))
	default:
		return in.String()
	}
}
