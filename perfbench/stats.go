package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, which it sorts in place, and whether at least ten samples lie beyond
// it. The nearest rank is ceil(p/100 × n); an empty sample has no
// percentile.
func percentile(xs []float64, p float64) (v float64, supported bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), false
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return xs[rank-1], n-rank >= 10
}

// median is the nearest-rank 50th percentile of xs (sorted in place), or 0
// for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v, _ := percentile(xs, 50)
	return v
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}
