package main

import (
	"math"
	"sort"
	"time"
)

// tailMinBeyond is how many samples must lie beyond a percentile before
// the summariser reports it as the tail: a p99 over 300 samples rests on
// three values and is noise.
const tailMinBeyond = 10

// dist is a sample distribution summarised the way every timing in this
// benchmark is reported: median, p99, and the highest percentile that
// still has tailMinBeyond samples beyond it, with the sample count.
type dist struct {
	N   int
	P50 float64
	P99 float64
	// Tail is the value at TailPct, the highest percentile with at least
	// tailMinBeyond samples beyond it (both 0 when N <= tailMinBeyond).
	Tail    float64
	TailPct float64
}

// summarize sorts xs in place and summarises it. An empty slice yields
// the zero dist.
func summarize(xs []float64) dist {
	n := len(xs)
	if n == 0 {
		return dist{}
	}
	sort.Float64s(xs)
	d := dist{N: n, P50: nearestRank(xs, 0.50), P99: nearestRank(xs, 0.99)}
	if k := n - tailMinBeyond; k >= 1 {
		// Rank k (1-based) has exactly tailMinBeyond samples above it and
		// is the k/n quantile under the nearest-rank definition.
		d.Tail = xs[k-1]
		d.TailPct = 100 * float64(k) / float64(n)
	}
	return d
}

// nearestRank returns the nearest-rank q-quantile of sorted xs: the
// smallest sample with at least q·n samples at or below it.
func nearestRank(sorted []float64, q float64) float64 {
	k := int(math.Ceil(q * float64(len(sorted))))
	if k < 1 {
		k = 1
	}
	return sorted[k-1]
}

// median returns the median of xs without reordering it (the mean of the
// two middle values for an even count; 0 for none).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianDur is median over durations, in seconds.
func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
