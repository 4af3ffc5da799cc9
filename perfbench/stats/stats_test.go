package stats

import (
	"math"
	"testing"
)

// The expected quartiles and medians are what Python's
// statistics.quantiles(data, n=4) and statistics.median print for the same
// data, so the spreads this package reports match the ones computed from
// the benchmark's printed results.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		data           []float64
		q1, median, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1.25, 9, 2, 2, 7, 11}, 2, 3.5, 9},
	}
	for _, c := range cases {
		s := Summarize(c.data)
		if !near(s.Q1, c.q1) || !near(s.Median, c.median) || !near(s.Q3, c.q3) {
			t.Errorf("Summarize(%v) = q1 %v median %v q3 %v, want %v %v %v",
				c.data, s.Q1, s.Median, s.Q3, c.q1, c.median, c.q3)
		}
		if s.N != len(c.data) {
			t.Errorf("N = %d, want %d", s.N, len(c.data))
		}
	}
}

func TestSummarizeDoesNotReorderInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input reordered: %v", xs)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {7000, 99}, {10000, 99.9},
	}
	for _, c := range cases {
		if got := TailPercentile(c.n); got != c.want {
			t.Errorf("TailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := Summarize(xs)
	if s.TailPct != 99 || s.Tail != 990 {
		t.Fatalf("tail = p%v %v, want p99 990", s.TailPct, s.Tail)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {20, 10}, {21, 20}, {50, 30}, {99, 50}, {100, 50}} {
		if got := Percentile(sorted, c.p); got != c.want {
			t.Errorf("Percentile(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := PercentileOf([]float64{50, 10, 40, 20, 30}, 50); got != 30 {
		t.Errorf("PercentileOf unsorted = %v, want 30", got)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
