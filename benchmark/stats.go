package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending without touching the input.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value, or the mean of the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the method Python's
// statistics.quantiles(xs, n=4) uses (the "exclusive" method), so spreads
// printed here match ones computed with Python's statistics module. A
// single value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		const n = 4
		ld := len(s)
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice: the smallest sample with at least p% of the samples at
// or below it.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// tailPercentiles are the candidates tailPercentile chooses from.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest of tailPercentiles that leaves at
// least ten of n samples beyond it, so a reported tail never rests on a
// handful of outliers; 0 when n is too small for even the median.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// geomean is the geometric mean of positive values; 0 if any is not.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Verdicts of compare, per (metric, workload).
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictWithin     = "within bound"
	verdictUnresolved = "unresolved"
)

// verdict judges new runs against base runs of one metric. worse is the
// relative change of the medians in the metric's bad direction. The
// result is:
//   - unresolved when either side's run-to-run spread (interquartile
//     range over median) is wider than the bound and not every run of one
//     side beats every run of the other;
//   - worse when the new median is worse by more than the bound;
//   - better when the new side wins at least nine tenths of the pairs
//     (base[i], new[i]), ties counting for neither, and the medians differ
//     by more than the base side's interquartile range;
//   - within bound otherwise.
func verdict(base, new []float64, lowerBetter bool, bound float64) string {
	if len(base) == 0 || len(new) == 0 {
		return verdictUnresolved
	}
	better := func(a, b float64) bool { // a reads better than b
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	bm, nm := median(base), median(new)
	worse := 0.0
	if bm != 0 {
		worse = (nm - bm) / math.Abs(bm)
		if !lowerBetter {
			worse = -worse
		}
	}
	allBetter, allWorse := true, true
	for _, b := range base {
		for _, n := range new {
			if !better(n, b) {
				allBetter = false
			}
			if !better(b, n) {
				allWorse = false
			}
		}
	}
	if (relSpread(base) > bound || relSpread(new) > bound) && !allBetter && !allWorse {
		return verdictUnresolved
	}
	if worse > bound {
		return verdictWorse
	}
	q1, q3 := quartiles(base)
	wins, pairs := 0, min(len(base), len(new))
	for i := 0; i < pairs; i++ {
		if better(new[i], base[i]) {
			wins++
		}
	}
	if math.Abs(nm-bm) > q3-q1 && better(nm, bm) && float64(wins) >= 0.9*float64(pairs) {
		return verdictBetter
	}
	return verdictWithin
}

// relSpread is the interquartile range as a share of the median.
func relSpread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}
