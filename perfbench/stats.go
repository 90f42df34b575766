package main

import (
	"slices"
	"time"
)

// nearestRank returns the p-quantile (0 < p <= 1) of xs by the
// nearest-rank rule: the smallest value with at least p*n values at or
// below it. With n >= 10/(1-p) samples at least ten lie beyond it.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := int(p*float64(len(s))+0.999999999) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// quartiles returns the first and third quartile of xs with the rule of
// Python's statistics.quantiles(xs, n=4) (method "exclusive"), so the
// spreads this benchmark prints are the ones a Python check computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	// The same integer arithmetic as CPython's implementation, including
	// its clamping of j (which extrapolates for very small n).
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// durMs and durNs express durations as float milliseconds and
// nanoseconds.
func durMs(d time.Duration) float64 { return float64(d) / 1e6 }
func durNs(d time.Duration) float64 { return float64(d) }
