package main

import (
	"math"
	"testing"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of odd count = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 1..100, unsorted
	}
	if got := percentile(xs, 0.95); got != 95 {
		t.Errorf("p95 of 1..100 = %v, want 95", got)
	}
	if got := percentile(xs, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("empty samples must give NaN, not a number that looks measured")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 199)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := tail(xs, 0.95); err == nil {
		t.Error("p95 of 199 samples has 9 beyond it and must be refused")
	}
	xs = append(xs, 199)
	got, err := tail(xs, 0.95)
	if err != nil || got != 189 {
		t.Errorf("p95 of 0..199 = %v, %v; want 189 with 10 samples beyond", got, err)
	}
}

// The expected cut points are what Python's statistics.quantiles(xs, n=4)
// prints for the same lists.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{11, 1, 9, 3, 4}, [3]float64{2, 4, 10}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestBestPerOpTakesEachOpsQuietestRound(t *testing.T) {
	rounds := []*roundResult{
		{lat: []float64{1.0, 9.0, 3.0}},
		{lat: []float64{4.0, 2.0, 3.5}},
		{lat: []float64{1.5, 2.5, 8.0}},
	}
	got := bestPerOp(rounds)
	want := []float64{1.0, 2.0, 3.0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bestPerOp = %v, want %v", got, want)
		}
	}
	if rounds[0].lat[1] != 9.0 {
		t.Error("bestPerOp changed a round's own latencies")
	}
}
