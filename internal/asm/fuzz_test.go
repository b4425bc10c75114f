package asm

import (
	"testing"
)

// FuzzAsmParse feeds arbitrary source text to Parse. Parse must return an
// error or a program that passes prog.Verify, and formatting that program
// must give text that parses again to the same text. The committed corpus in
// testdata/fuzz holds the crashers found so far (an empty memory operand).
func FuzzAsmParse(f *testing.F) {
	f.Add(sumSrc)
	f.Add("func f\nb0:\n amocas r1, [r2-8], r3, r4\n lock [sp+0]\n unlock [sp]\n halt\nthread f\n")
	f.Add("func f\nb0:\n call g\n halt\nfunc g\nb0:\n rgn.boundary\n ckpt r1\n ret\nthread f\n")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse("fuzz", src)
		if err != nil {
			return
		}
		if err := p.Verify(); err != nil {
			t.Fatalf("Parse accepted a program Verify rejects: %v", err)
		}
		text := Format(p)
		p2, err := Parse("fuzz", text)
		if err != nil {
			t.Fatalf("formatted program does not parse: %v\n%s", err, text)
		}
		if again := Format(p2); again != text {
			t.Fatalf("format not stable:\n--- first ---\n%s\n--- second ---\n%s", text, again)
		}
	})
}
