package stats

import (
	"math"
	"testing"
)

func TestMedianAndMAD(t *testing.T) {
	if got := Median(nil); got != 0 {
		t.Errorf("Median(nil) = %v, want 0", got)
	}
	if got := Median([]float64{3}); got != 3 {
		t.Errorf("Median([3]) = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	// Median must not reorder the caller's slice.
	xs := []float64{9, 1, 5}
	Median(xs)
	if xs[0] != 9 || xs[1] != 1 || xs[2] != 5 {
		t.Errorf("Median mutated its input: %v", xs)
	}
	if got := MAD([]float64{7}); got != 0 {
		t.Errorf("MAD of single sample = %v, want 0", got)
	}
	// Median 5, deviations {4,1,0,1,4} → MAD 1.
	if got := MAD([]float64{1, 4, 5, 6, 9}); got != 1 {
		t.Errorf("MAD = %v, want 1", got)
	}
}

func TestMannWhitneyExactSmall(t *testing.T) {
	// n=m=3, complete separation: U=0, exact two-sided p = 2/C(6,3) = 0.1.
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	p := MannWhitneyUP(x, y)
	if math.Abs(p-0.1) > 1e-12 {
		t.Errorf("exact p = %v, want 0.1", p)
	}
	// Symmetric in argument order.
	if q := MannWhitneyUP(y, x); math.Abs(q-p) > 1e-12 {
		t.Errorf("p not symmetric: %v vs %v", p, q)
	}
}

func TestMannWhitneySeparationSignificant(t *testing.T) {
	// n=m=5 with complete separation: exact p = 2/C(10,5) ≈ 0.0079 < 0.05.
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{10, 11, 12, 13, 14}
	p := MannWhitneyUP(x, y)
	want := 2.0 / 252.0
	if math.Abs(p-want) > 1e-12 {
		t.Errorf("exact p = %v, want %v", p, want)
	}
}

func TestMannWhitneyIdenticalSamples(t *testing.T) {
	// All values tied → normal path with zero variance → p = 1.
	x := []float64{5, 5, 5, 5}
	y := []float64{5, 5, 5, 5}
	if p := MannWhitneyUP(x, y); p != 1 {
		t.Errorf("identical samples: p = %v, want 1", p)
	}
	if p := MannWhitneyUP(nil, y); p != 1 {
		t.Errorf("empty side: p = %v, want 1", p)
	}
}

func TestMannWhitneyInterleavedNotSignificant(t *testing.T) {
	// Perfectly interleaved samples should be far from significant.
	x := []float64{1, 3, 5, 7, 9}
	y := []float64{2, 4, 6, 8, 10}
	if p := MannWhitneyUP(x, y); p < 0.5 {
		t.Errorf("interleaved samples: p = %v, want >= 0.5", p)
	}
}

func TestMannWhitneyNormalApproxWithTies(t *testing.T) {
	// Ties force the normal path; separation should still be highly
	// significant.
	x := []float64{1, 1, 2, 2, 3, 3, 4, 4, 5, 5}
	y := []float64{10, 10, 11, 11, 12, 12, 13, 13, 14, 14}
	p := MannWhitneyUP(x, y)
	if p >= 0.01 {
		t.Errorf("tied separated samples: p = %v, want < 0.01", p)
	}
	if p <= 0 {
		t.Errorf("p must be positive, got %v", p)
	}
}

func TestCompareRates(t *testing.T) {
	old := []float64{100, 101, 99, 100, 102}
	slow := []float64{80, 81, 79, 80, 82}
	c := CompareRates(old, slow)
	if !c.Significant {
		t.Errorf("20%% slowdown across 5 clean samples should be significant: %+v", c)
	}
	if c.Delta >= 0 {
		t.Errorf("slowdown must have negative delta: %v", c.Delta)
	}
	if c.TooFew {
		t.Errorf("5 samples per side are enough to judge")
	}

	same := CompareRates(old, []float64{101, 100, 99, 102, 100})
	if same.Significant {
		t.Errorf("same-distribution samples flagged significant: %+v", same)
	}

	few := CompareRates([]float64{100}, slow)
	if !few.TooFew || few.Significant {
		t.Errorf("a single old sample must be too few to judge: %+v", few)
	}
	if few.OldMedian != 100 || few.Delta >= 0 {
		t.Errorf("too few samples still reports medians/delta: %+v", few)
	}
}
