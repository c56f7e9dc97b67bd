package main

import (
	"fmt"
	"math"
	"sort"
)

// tailSamples is how many samples must lie beyond a reported percentile:
// a p95 over fewer than 200 ops is the maximum of a handful of ops, and
// the maximum does not repeat.
const tailSamples = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs, or
// NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

// median is the mean of the two middle samples for an even count, so the
// median over an even number of rounds is not biased to either side.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// tail returns the p-quantile only when at least tailSamples samples lie
// beyond it.
func tail(xs []float64, p float64) (float64, error) {
	rank := int(math.Ceil(p * float64(len(xs))))
	if beyond := len(xs) - rank; beyond < tailSamples {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", p*100, len(xs), beyond, tailSamples)
	}
	return percentile(xs, p), nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles are the cut points Python's statistics.quantiles(xs, n=4)
// returns (its default "exclusive" method), because that is the function
// the benchmark's acceptance check is stated in.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / q2
}
