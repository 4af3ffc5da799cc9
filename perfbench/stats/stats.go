// Package stats summarizes repeated benchmark samples: median, quartiles,
// and the highest percentile the sample count supports.
package stats

import (
	"math"
	"sort"
)

// MinBeyond is how many samples must lie beyond a percentile before it is
// reported: a p99 over 200 samples rests on two values and says nothing.
const MinBeyond = 10

// tailLadder lists the percentiles considered for the tail, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// Summary describes one metric's samples.
type Summary struct {
	N      int
	Median float64
	Q1, Q3 float64
	// TailPct is the highest percentile in tailLadder with at least
	// MinBeyond samples beyond it (0 when even the median has fewer), and
	// Tail its value.
	TailPct float64
	Tail    float64
}

// Summarize returns the summary of xs (which it does not modify).
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = median(sorted)
	s.Q1, s.Q3 = quartiles(sorted)
	if p := TailPercentile(len(sorted)); p > 0 {
		s.TailPct, s.Tail = p, Percentile(sorted, p)
	}
	return s
}

// Median returns the median of xs (0 when empty).
func Median(xs []float64) float64 { return Summarize(xs).Median }

func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quartiles follows Python's statistics.quantiles(data, n=4) with its
// default "exclusive" method, so spreads computed here match the ones
// computed from the printed results. A single sample is its own quartiles.
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	if n == 1 {
		return sorted[0], sorted[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4 // may fall outside 0..4: Python extrapolates too
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// TailPercentile is the highest percentile in the ladder 99.9, 99, 95, 90,
// 75, 50 with at least MinBeyond of n samples beyond it, or 0 if none.
func TailPercentile(n int) float64 {
	for _, p := range tailLadder {
		beyondPerMille := int(math.Round((100 - p) * 10))
		if n*beyondPerMille >= MinBeyond*1000 {
			return p
		}
	}
	return 0
}

// Percentile returns the nearest-rank p-th percentile of sorted samples.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// PercentileOf sorts a copy of xs and returns its p-th percentile.
func PercentileOf(xs []float64, p float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Percentile(sorted, p)
}
