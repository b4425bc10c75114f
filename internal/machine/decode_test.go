package machine

import (
	"math/bits"
	"testing"

	"capri/internal/isa"
	"capri/internal/prog"
)

// blockLadder builds a one-function program of n blocks, each an ALU run, a
// store, a fence, a lock and a branch to the next.
func blockLadder(n int) *prog.Program {
	bd := prog.NewBuilder("ladder")
	f := bd.Func("main")
	bs := make([]*prog.Block, n)
	for i := range bs {
		bs[i] = f.Block()
	}
	for i := 0; i < n-1; i++ {
		f.SetBlock(bs[i])
		f.AddI(1, 1, int64(i))
		f.MulI(2, 1, 3)
		f.Store(isa.SP, 8, 2)
		f.Fence()
		f.Lock(isa.SP, 16)
		f.Br(bs[i+1])
	}
	f.SetBlock(bs[n-1])
	f.Halt()
	return bd.Program()
}

// TestDecodeAllocsPerChunk pins the decode slabs: decoding every block of a
// program costs allocations per slab chunk, not per block.
func TestDecodeAllocsPerChunk(t *testing.T) {
	cfg := testConfig(64)
	decodeAll := func(p *prog.Program) *dprog {
		dp := newDprog(p)
		for fi, f := range p.Funcs {
			for bi, b := range f.Blocks {
				dp.fns[fi][bi] = dp.decodeBlock(b.Insts, &cfg)
			}
		}
		return dp
	}
	const blocks = 1024
	p := blockLadder(blocks)
	insts := 0
	for _, b := range p.Funcs[0].Blocks {
		insts += len(b.Insts)
	}
	dp := decodeAll(p)
	ops, maxOps := 0, 0
	for _, db := range dp.fns[0] {
		ops += len(db.ops)
		maxOps = max(maxOps, len(db.ops))
		if cap(db.ops) != len(db.ops) || cap(db.pc) != len(db.pc) {
			t.Fatal("decoded block ops/pc are not exactly sized full slices")
		}
	}
	// Carving leaves less than one block's share unused per chunk, so one
	// spare chunk per slab covers it; add the dprog, its two indexes and the
	// scratch's doublings.
	chunks := func(n, chunk int) int { return (n+chunk-1)/chunk + 1 }
	bound := 3 + bits.Len(uint(maxOps)) + chunks(blocks, blockChunk) + chunks(insts, pcChunk) + chunks(ops, opChunk)
	if got := testing.AllocsPerRun(10, func() { decodeAll(p) }); got > float64(bound) {
		t.Errorf("decoding %d blocks (%d insts, %d ops) made %.0f allocations, want <= %d",
			blocks, insts, ops, got, bound)
	}
}

// BenchmarkDecodeProgram measures the decoder per block (ns/op and
// allocs/op are per block) over a ladder of fused and single-op blocks.
func BenchmarkDecodeProgram(b *testing.B) {
	cfg := testConfig(64)
	p := blockLadder(256)
	blocks := p.Funcs[0].Blocks
	b.ReportAllocs()
	var dp *dprog
	for i := 0; i < b.N; i++ {
		j := i % len(blocks)
		if j == 0 {
			dp = newDprog(p)
		}
		dp.fns[0][j] = dp.decodeBlock(blocks[j].Insts, &cfg)
	}
}
