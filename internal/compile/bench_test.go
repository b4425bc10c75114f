package compile

import (
	"fmt"
	"testing"

	"capri/internal/workload"
)

// BenchmarkCompile times whole-pipeline compiles of fixed inputs, one
// sub-benchmark per (program, level, threshold). Run with -benchmem: the
// allocs/op column is the compiler's allocation budget per compile.
//
//	go test -bench Compile -benchmem -run '^$' ./internal/compile
func BenchmarkCompile(b *testing.B) {
	type cell struct {
		bench string
		level Level
	}
	// Fig. 8's +licm on one Splash program, and every level on one SPEC one.
	cells := []cell{{"ocean", LevelLICM}}
	for _, l := range Levels {
		cells = append(cells, cell{"505.mcf_r", l})
	}
	for _, c := range cells {
		w, err := workload.ByName(c.bench)
		if err != nil {
			b.Fatal(err)
		}
		p := w.Build(1)
		opts := OptionsForLevel(c.level, DefaultThreshold)
		b.Run(fmt.Sprintf("%s/%s@%d", c.bench, c.level, DefaultThreshold), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Compile(p, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFingerprint times hashing a compiled program (ocean +licm@256,
// recovery slices included); allocs/op must stay 0.
//
//	go test -bench Fingerprint -benchmem -run '^$' ./internal/compile
func BenchmarkFingerprint(b *testing.B) {
	src, opts := oceanSource(b)
	p := MustCompile(src, opts).Program
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fingerprintSink = p.Fingerprint()
	}
}

// fingerprintSink keeps BenchmarkFingerprint's result live.
var fingerprintSink [32]byte
