package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{4, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{nil, 0},
	} {
		if got := summarize(c.in).median; !near(got, c.want) {
			t.Errorf("median of %v = %v, want %v", c.in, got, c.want)
		}
	}
}

// The quartiles must match Python's statistics.quantiles(data, n=4), the
// definition the benchmark's spreads are judged by.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{5, 1, 9}, 1, 9},
		{[]float64{3, 7}, 2, 8},
		{[]float64{6}, 6, 6},
	} {
		s := summarize(c.in)
		if !near(s.q1, c.q1) || !near(s.q3, c.q3) {
			t.Errorf("quartiles of %v = [%v, %v], want [%v, %v]", c.in, s.q1, s.q3, c.q1, c.q3)
		}
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// The tail is the highest ladder percentile with at least ten samples
// beyond it, by nearest rank.
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n         int
		pct, want float64
	}{
		{19, 0, 10},    // too few for any percentile: the median
		{20, 50, 10},   // p50 is rank 10, ten samples beyond
		{40, 75, 30},   // p75 is rank 30, ten beyond; p90 would leave four
		{99, 75, 75},   // p90 is rank 90, only nine beyond
		{100, 90, 90},  // p90 is rank 90, ten beyond
		{200, 95, 190}, // p95 is rank 190, ten beyond
		{100000, 95, 95000},
	} {
		s := summarize(seq(c.n))
		if s.tailPct != c.pct || !near(s.tail, c.want) || s.n != c.n {
			t.Errorf("n=%d: tail p%v = %v (n=%d), want p%v = %v", c.n, s.tailPct, s.tail, s.n, c.pct, c.want)
		}
	}
}
