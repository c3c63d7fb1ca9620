package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile.
// With fewer, the percentile is set by a handful of samples and moves from
// run to run, so it is not reported at all.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of samples,
// which it sorts in place. ok is false when fewer than minBeyond samples
// lie beyond the returned rank.
func percentile(samples []float64, q float64) (v float64, ok bool) {
	n := len(samples)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if n-rank < minBeyond {
		return 0, false
	}
	sort.Float64s(samples)
	return samples[rank-1], true
}

// minSamplesFor is the smallest sample count at which percentile(·, q)
// reports a value.
func minSamplesFor(q float64) int {
	for n := minBeyond + 1; ; n++ {
		if n-int(math.Ceil(q*float64(n))) >= minBeyond {
			return n
		}
	}
}

// median returns the median of xs (the mean of the middle pair for even
// lengths) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the same rule
// as Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so
// the spreads printed here match the ones a Python harness computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median: the
// run-to-run noise measure every bound is compared against.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// worse reports whether cur is worse than base by more than bound, a share
// of base, for a metric whose better direction is "lower" or "higher".
func worse(base, cur float64, better string, bound float64) (bool, error) {
	if base == 0 {
		return false, fmt.Errorf("zero baseline")
	}
	var change float64
	switch better {
	case "lower":
		change = (cur - base) / math.Abs(base)
	case "higher":
		change = (base - cur) / math.Abs(base)
	default:
		return false, fmt.Errorf("unknown direction %q", better)
	}
	return change > bound, nil
}
