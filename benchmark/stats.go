package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between order statistics (the "inclusive" definition: p=0
// is the minimum, p=100 the maximum). It returns 0 for an empty input and
// does not modify xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// mean is the arithmetic mean, 0 for an empty input.
func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// ratio is a/b, or 0 when b is 0 (a layer that did no work reports 0, not
// NaN, so every metric stays a JSON number).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// relDiff is how much worse b is than a as a share of a, signed so that a
// positive value always means "b is worse": for lower-is-better metrics
// that is (b-a)/a, for higher-is-better (a-b)/a.
func relDiff(a, b float64, higherBetter bool) float64 {
	if a == 0 {
		return 0
	}
	if higherBetter {
		return (a - b) / a
	}
	return (b - a) / a
}
