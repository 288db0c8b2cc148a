package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation (n−1 denominator) of
// xs, or 0 when fewer than two samples are given.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using
// linear interpolation between closest ranks. It panics on an empty
// slice or out-of-range p.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %g out of range", p))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// MeanCI returns the sample mean and the half-width of its normal
// -approximation confidence interval at the given z value (1.96 ≈ 95 %).
// With fewer than two samples the half-width is 0.
func MeanCI(xs []float64, z float64) (mean, half float64) {
	mean = Mean(xs)
	if len(xs) < 2 {
		return mean, 0
	}
	half = z * StdDev(xs) / math.Sqrt(float64(len(xs)))
	return mean, half
}

// tCrit95 holds the two-sided Student-t critical values at 95 %
// confidence for 1…29 degrees of freedom (Fisher & Yates table).
var tCrit95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045,
}

// TCritical95 returns the critical value for a two-sided 95 %
// confidence interval of the mean of n samples: the Student-t quantile
// at n−1 degrees of freedom for n ≤ 30 (at n = 3 that is 4.303, more
// than twice the normal 1.96 — the difference between honest and
// overconfident error bars at small n), falling back to the normal
// z = 1.96 above, where t is within 2 % of z. For n < 2, where no
// interval exists, it returns 0.
func TCritical95(n int) float64 {
	if n < 2 {
		return 0
	}
	if n-2 < len(tCrit95) {
		return tCrit95[n-2]
	}
	return 1.96
}
