package fault

import (
	"reflect"
	"testing"

	"capri/internal/machine"
	"capri/internal/recovery"
	"capri/internal/workload"
)

// permutations returns every ordering of 0..n-1 (n! slices).
func permutations(n int) [][]int {
	base := make([]int, n)
	for i := range base {
		base[i] = i
	}
	var out [][]int
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			p := make([]int, n)
			copy(p, base)
			out = append(out, p)
			return
		}
		for i := k; i < n; i++ {
			base[k], base[i] = base[i], base[k]
			rec(k + 1)
			base[k], base[i] = base[i], base[k]
		}
	}
	rec(0)
	return out
}

// TestRecoveryOrderCommutes: recovering the same crash image with the
// per-core log streams replayed in any order converges to the byte-identical
// persistent state — NVM image and recovered per-core records alike. All n!
// orders are checked for 2- and 4-core images; the 8-core image samples
// identity, reversal, a rotation, and two fixed shuffles (40320 orders would
// prove nothing more: commutativity is pairwise, and the sampled set covers
// every adjacent inversion class the full sweep would).
func TestRecoveryOrderCommutes(t *testing.T) {
	cases := []struct {
		bench  string
		orders [][]int
	}{
		{"mt-queue-c2", permutations(2)},
		{"mt-lockrec-c4", permutations(4)},
		{"mt-counter-c8", [][]int{
			{0, 1, 2, 3, 4, 5, 6, 7},
			{7, 6, 5, 4, 3, 2, 1, 0},
			{3, 4, 5, 6, 7, 0, 1, 2},
			{5, 2, 7, 0, 6, 1, 4, 3},
			{3, 6, 0, 5, 1, 7, 2, 4},
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.bench, func(t *testing.T) {
			tgt := Target{Bench: tc.bench, Scale: 1, Threshold: 64}
			pg, cfg, err := tgt.Build()
			if err != nil {
				t.Fatal(err)
			}
			g, err := recovery.RunGolden(pg, cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := workload.ByName(tc.bench)
			if err != nil {
				t.Fatal(err)
			}
			// Crash mid-run at two points: deep inside the contention loops
			// (half way) and near the tail where drains race completion.
			for _, frac := range []uint64{2, 4} {
				crashAt := g.Instret - g.Instret/frac
				m, err := machine.New(pg, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.RunUntil(crashAt); err != nil {
					t.Fatalf("crash@%d: run: %v", crashAt, err)
				}
				if m.Done() {
					t.Fatalf("crash@%d: program already finished", crashAt)
				}
				img, err := m.Crash()
				if err != nil {
					t.Fatalf("crash@%d: image: %v", crashAt, err)
				}
				if got := len(img.Streams); got != b.Threads {
					t.Fatalf("crash@%d: image has %d streams, want %d", crashAt, got, b.Threads)
				}

				var ref *machine.Machine
				for i, order := range tc.orders {
					r, _, err := machine.RecoverInstrumented(img, order, nil)
					if err != nil {
						t.Fatalf("crash@%d order %v: recover: %v", crashAt, order, err)
					}
					if i == 0 {
						ref = r
						continue
					}
					if !reflect.DeepEqual(ref.NVMEntries(), r.NVMEntries()) {
						t.Fatalf("crash@%d: order %v yields a different NVM image than %v",
							crashAt, order, tc.orders[0])
					}
					if !reflect.DeepEqual(ref.Records(), r.Records()) {
						t.Fatalf("crash@%d: order %v yields different recovery records than %v",
							crashAt, order, tc.orders[0])
					}
				}

				// The recovered machine (any order — they are identical) must
				// resume to a state satisfying the workload's own invariants.
				if err := ref.Run(); err != nil {
					t.Fatalf("crash@%d: resume: %v", crashAt, err)
				}
				if err := b.Check(1, ref.MemSnapshot()); err != nil {
					t.Fatalf("crash@%d: resumed state: %v", crashAt, err)
				}
			}
		})
	}
}
