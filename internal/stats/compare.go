package stats

import (
	"math"
	"sort"
)

// Variance-aware sample comparison (DESIGN.md §4j): `capristat` judges two
// result sets of the repository benchmark run by run with the Mann-Whitney
// U test — the same rank test benchstat uses — instead of a point
// comparison of two single runs. Everything here is pure stdlib math.

// Median returns the sample median (0 for an empty slice). The input is
// not modified.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// MAD returns the median absolute deviation from the median — the robust
// spread estimate reported next to each metric's median. 0 for fewer than
// two samples.
func MAD(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - m)
	}
	return Median(dev)
}

// MannWhitneyUP returns the two-sided p-value of the Mann-Whitney U test
// for samples x and y: the probability, under the null hypothesis that
// both come from the same distribution, of a rank split at least as
// extreme as observed. Small sample counts without ties use the exact
// distribution (dynamic programming over f(n,m,u) = f(n-1,m,u-m) +
// f(n,m-1,u)); larger counts or tied values fall back to the normal
// approximation with tie correction and continuity correction. Returns 1
// when either sample is empty (no evidence of anything).
func MannWhitneyUP(x, y []float64) float64 {
	n, m := len(x), len(y)
	if n == 0 || m == 0 {
		return 1
	}
	// Rank the pooled samples, averaging ranks across ties.
	pool := make([]float64, 0, n+m)
	pool = append(pool, x...)
	pool = append(pool, y...)
	idx := make([]int, n+m)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return pool[idx[a]] < pool[idx[b]] })
	ranks := make([]float64, n+m)
	ties := false
	var tieTerm float64 // Σ (t³ − t) over tie groups, for the variance correction
	for i := 0; i < n+m; {
		j := i
		for j+1 < n+m && pool[idx[j+1]] == pool[idx[i]] {
			j++
		}
		r := float64(i+j)/2 + 1 // average rank of the tie group (1-based)
		for k := i; k <= j; k++ {
			ranks[idx[k]] = r
		}
		if j > i {
			ties = true
			t := float64(j - i + 1)
			tieTerm += t*t*t - t
		}
		i = j + 1
	}
	var rx float64
	for i := 0; i < n; i++ {
		rx += ranks[i]
	}
	u1 := rx - float64(n*(n+1))/2
	u2 := float64(n*m) - u1
	u := math.Min(u1, u2)
	if !ties && n <= exactLimit && m <= exactLimit {
		return exactMannWhitneyP(n, m, u)
	}
	// Normal approximation with tie-corrected variance and continuity
	// correction.
	N := float64(n + m)
	mu := float64(n*m) / 2
	sigma2 := float64(n*m) / 12 * (N + 1 - tieTerm/(N*(N-1)))
	if sigma2 <= 0 {
		return 1 // all values identical
	}
	z := (math.Abs(u-mu) - 0.5) / math.Sqrt(sigma2)
	if z < 0 {
		z = 0
	}
	return math.Erfc(z / math.Sqrt2)
}

// exactLimit bounds the per-side sample count for the exact U
// distribution; beyond it the normal approximation is already excellent
// and the DP table cost grows as n·m·(n·m).
const exactLimit = 25

// exactMannWhitneyP returns the exact two-sided p-value
// P(U ≤ u) + P(U ≥ nm−u) under the null, via the standard recurrence on
// the number of rank arrangements with statistic u.
func exactMannWhitneyP(n, m int, u float64) float64 {
	uMax := n * m
	uInt := int(u) // u is integral when there are no ties
	// f[i][j] over u: count of arrangements of i x's and j y's with
	// U statistic exactly u. Rolling over i to bound memory.
	prev := make([][]float64, m+1)
	cur := make([][]float64, m+1)
	for j := 0; j <= m; j++ {
		prev[j] = make([]float64, uMax+1)
		cur[j] = make([]float64, uMax+1)
		prev[j][0] = 1 // zero x's: only U=0
	}
	for i := 1; i <= n; i++ {
		for j := 0; j <= m; j++ {
			row := cur[j]
			for k := range row {
				row[k] = 0
			}
			for k := 0; k <= i*j && k <= uMax; k++ {
				// last element is an x (U unchanged from f(i-1, j, k-j))
				if k >= j {
					row[k] += prev[j][k-j]
				}
				// last element is a y
				if j > 0 {
					row[k] += cur[j-1][k]
				}
			}
		}
		prev, cur = cur, prev
	}
	dist := prev[m]
	var total, tail float64
	for k := 0; k <= n*m; k++ {
		total += dist[k]
		if k <= uInt || k >= uMax-uInt {
			tail += dist[k]
		}
	}
	if total == 0 {
		return 1
	}
	p := tail / total
	if p > 1 {
		p = 1
	}
	return p
}

// Comparison is the verdict of CompareRates for one metric: the summary
// statistics of both sample sets and the significance decision.
type Comparison struct {
	// OldMedian and NewMedian are the sample medians; OldMAD and NewMAD
	// their median absolute deviations.
	OldMedian, NewMedian float64
	OldMAD, NewMAD       float64
	// Delta is the relative change of the new median vs the old
	// ((new−old)/old); 0 when the old median is 0.
	Delta float64
	// P is the Mann-Whitney two-sided p-value, or 1 when either side
	// has too few samples for the test (see TooFew).
	P float64
	// Significant reports P < CompareAlpha with at least
	// CompareMinSamples per side.
	Significant bool
	// TooFew reports that one side had fewer than CompareMinSamples
	// samples: nothing was judged.
	TooFew bool
}

// CompareAlpha is the significance level capristat gates at.
const CompareAlpha = 0.05

// CompareMinSamples is the fewest per-side samples the rank test is
// asked to judge; below it even a perfect rank split cannot reach
// CompareAlpha, so CompareRates reports TooFew instead.
const CompareMinSamples = 4

// CompareRates compares two sample sets and returns the variance-aware
// verdict: medians, MADs, relative delta, and whether the difference is
// statistically significant at CompareAlpha.
func CompareRates(old, new []float64) Comparison {
	c := Comparison{
		OldMedian: Median(old), NewMedian: Median(new),
		OldMAD: MAD(old), NewMAD: MAD(new),
		P: 1,
	}
	if c.OldMedian != 0 {
		c.Delta = (c.NewMedian - c.OldMedian) / c.OldMedian
	}
	if len(old) < CompareMinSamples || len(new) < CompareMinSamples {
		c.TooFew = true
		return c
	}
	c.P = MannWhitneyUP(old, new)
	c.Significant = c.P < CompareAlpha
	return c
}
