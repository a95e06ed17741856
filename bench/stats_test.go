package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileSampleCountRule(t *testing.T) {
	for _, tc := range []struct {
		n       int
		p       float64
		want    float64
		refused bool
	}{
		{999, 99, 0, true}, // 9.99 samples beyond: refused
		{1000, 99, 990, false},
		{99, 90, 0, true},
		{100, 90, 90, false},
		{1, 50, 1, false}, // the median needs one sample
		{7, 50, 4, false},
		{2000, 99, 1980, false},
	} {
		got, err := percentile(seq(tc.n), tc.p)
		if tc.refused {
			if err == nil {
				t.Errorf("p%g over %d samples: got %g, want refusal", tc.p, tc.n, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("p%g over %d samples = %g, %v; want %g", tc.p, tc.n, got, err, tc.want)
		}
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("percentile of no samples: want error")
	}
	if _, err := percentile(seq(10), 0); err == nil {
		t.Error("p0: want error")
	}
	if got := percentileOrZero(seq(10), 99); got != 0 {
		t.Errorf("percentileOrZero on a refused percentile = %g, want 0", got)
	}
}

func TestPercentileDoesNotReorderInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got, _ := percentile(xs, 50); got != 2 {
		t.Fatalf("median = %g, want 2", got)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input reordered: %v", xs)
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	q1, q3, ok := quartiles(seq(10))
	if !ok || q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles(1..10) = %g, %g, %v; want 2.75, 8.25", q1, q3, ok)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
	q1, q3, ok = quartiles([]float64{2, 1})
	if !ok || q1 != 0.75 || q3 != 2.25 {
		t.Fatalf("quartiles(1,2) = %g, %g, %v; want 0.75, 2.25", q1, q3, ok)
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Fatal("quartiles of one sample: want !ok")
	}
	s, ok := spread(seq(10))
	if !ok || math.Abs(s-1) > 1e-12 { // (8.25-2.75)/5.5
		t.Fatalf("spread(1..10) = %g, %v; want 1", s, ok)
	}
	if _, ok := spread([]float64{0, 0, 0}); ok {
		t.Fatal("spread with median 0: want !ok")
	}
}

func TestMedianAndMean(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %g, want 0", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %g, want 3", got)
	}
}
