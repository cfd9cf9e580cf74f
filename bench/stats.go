package main

import (
	"math"
	"sort"
)

// samples is a set of measurements of one quantity, in any order.
type samples []float64

func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank q-quantile (0 < q ≤ 1) of a sorted
// slice: the smallest value with at least q·n values at or below it,
// so it is always a value that was measured. Empty input gives 0.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return sorted[k]
}

// median is the usual midpoint median (mean of the two central values
// for even n); it is the figure every timing metric reports.
func (s samples) median() float64 {
	v := s.sorted()
	n := len(v)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

func (s samples) p(q float64) float64 { return quantile(s.sorted(), q) }

// quartiles returns Q1 and Q3 the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), the rule
// the acceptance driver applies to run-to-run spread. Fewer than two
// values have no spread: both quartiles are the value itself.
func (s samples) quartiles() (q1, q3 float64) {
	v := s.sorted()
	n := len(v)
	if n < 2 {
		if n == 1 {
			return v[0], v[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		// position i·(n+1)/4 on a 1-based scale, clamped to the data
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return v[j-1] + frac*(v[j]-v[j-1])
	}
	return at(1), at(3)
}

// tailPercentiles are the candidates for the reported tail, ascending.
var tailPercentiles = []float64{0.50, 0.75, 0.90, 0.95, 0.99, 0.999}

// tailQuantile picks the highest candidate percentile that still has
// at least ten samples beyond it — a higher one would be decided by a
// handful of outliers. With fewer than twenty samples not even the
// median qualifies and the maximum is reported as q = 1.
func tailQuantile(n int) float64 {
	best := 1.0
	for _, q := range tailPercentiles {
		beyond := n - int(math.Ceil(q*float64(n)))
		if beyond >= 10 {
			best = q
		}
	}
	return best
}

// tail returns the tail percentile chosen by tailQuantile and its value.
func (s samples) tail() (q, value float64) {
	q = tailQuantile(len(s))
	return q, s.p(q)
}
