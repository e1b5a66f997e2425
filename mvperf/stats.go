package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailPercentiles are the tail percentiles tailPercentile considers,
// highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90}

// tailPercentile returns the highest tail percentile of xs that has at
// least ten samples beyond it, and its nearest-rank value. A percentile
// with fewer samples beyond it would be set by a handful of outliers,
// so with under 100 samples there is no tail to report and ok is
// false.
func tailPercentile(xs []float64) (pct, value float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	for _, p := range tailPercentiles {
		// 1-based nearest rank; the epsilon keeps 99.9/100*n from
		// rounding up past an exact rank.
		rank := int(math.Ceil(p/100*float64(n) - 1e-9))
		if rank < 1 || n-rank < 10 {
			continue
		}
		return p, s[rank-1], true
	}
	return 0, 0, false
}

// geomean is the geometric mean of xs. It is 0, which no metric it
// feeds may be, when xs is empty or holds a value that is not positive.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logs float64
	for _, x := range xs {
		if !(x > 0) {
			return 0
		}
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
