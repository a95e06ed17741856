package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the sample-count rule for tail percentiles: a
// percentile is reported only when at least this many samples lie
// beyond it, so a p99 needs 1,000 samples and a p90 needs 100.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of xs. It refuses a percentile with fewer than minBeyond samples
// beyond it — a tail read off a handful of samples is noise, not a
// metric — except the median, which only needs one sample.
func percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("percentile p%g: no samples", p)
	}
	if p <= 0 || p > 100 {
		return 0, fmt.Errorf("percentile p%g: out of range", p)
	}
	if p != 50 {
		if beyond := float64(len(xs)) * (100 - p) / 100; beyond < minBeyond {
			return 0, fmt.Errorf("percentile p%g over %d samples: %.1f samples beyond it, want >= %d",
				p, len(xs), beyond, minBeyond)
		}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], nil
}

// percentileOrZero is percentile for per-layer diagnostics, where a
// refused percentile is reported as 0 ("not enough samples") instead of
// failing the run.
func percentileOrZero(xs []float64, p float64) float64 {
	v, err := percentile(xs, p)
	if err != nil {
		return 0
	}
	return v
}

// median is the 50th percentile by interpolation (the mean of the two
// middle samples for even counts); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of xs by the
// "exclusive" method Python's statistics.quantiles(xs, n=4) uses, so
// -compare's spread matches the acceptance check's. It needs at least
// two samples.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		// Position k*(n+1)/4 in 1-based order statistics, clamped and
		// linearly interpolated.
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return at(1), at(3), true
}

// spread is the interquartile range of xs as a share of its median —
// the run-to-run noise figure the bounds are judged against. It
// reports ok=false when there are too few runs or the median is 0.
func spread(xs []float64) (float64, bool) {
	q1, q3, ok := quartiles(xs)
	m := median(xs)
	if !ok || m == 0 {
		return 0, false
	}
	return (q3 - q1) / math.Abs(m), true
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
