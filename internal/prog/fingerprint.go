package prog

import (
	"crypto/sha256"
	"encoding/binary"

	"capri/internal/isa"
)

// Fingerprint returns a content hash of the program: every function, block,
// instruction field, recovery slice, return site and thread entry feeds the
// digest in a fixed order, so two programs hash equal iff they are
// structurally identical. The compile cache uses this as the program half of
// its content-addressed key; it is also handy for asserting byte-identical
// compiler output in tests. It allocates nothing.
func (p *Program) Fingerprint() [sha256.Size]byte {
	h := sha256.New()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wstr := func(s string) {
		w64(uint64(len(s)))
		h.Write([]byte(s))
	}
	winst := func(in *isa.Inst) {
		// Fixed-shape struct: hash every field explicitly so padding or
		// future field reordering cannot change the digest silently.
		h.Write([]byte{byte(in.Op), byte(in.Cond), byte(in.Rd), byte(in.Ra), byte(in.Rb), byte(in.Rc)})
		w64(uint64(in.Imm))
		w64(uint64(int64(in.Target)))
		w64(uint64(int64(in.Else)))
		w64(uint64(int64(in.Callee)))
	}

	wstr(p.Name)
	w64(uint64(len(p.Funcs)))
	for _, f := range p.Funcs {
		wstr(f.Name)
		w64(uint64(f.Entry))
		w64(uint64(len(f.Blocks)))
		for _, b := range f.Blocks {
			if b.BoundaryAt {
				w64(1)
			} else {
				w64(0)
			}
			w64(uint64(len(b.Insts)))
			for i := range b.Insts {
				winst(&b.Insts[i])
			}
			w64(uint64(len(b.RecoverySlices)))
			for _, s := range b.RecoverySlices {
				w64(uint64(s.Reg))
				w64(uint64(len(s.Insts)))
				for i := range s.Insts {
					winst(&s.Insts[i])
				}
			}
		}
	}
	w64(uint64(len(p.RetSites)))
	for _, rs := range p.RetSites {
		w64(uint64(rs.Func))
		w64(uint64(rs.Block))
		w64(uint64(rs.Index))
	}
	w64(uint64(len(p.ThreadEntries)))
	for _, te := range p.ThreadEntries {
		w64(uint64(te))
	}

	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}
