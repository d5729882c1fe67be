package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail is chosen from. The tail of a
// sample is the highest of these with at least tailBeyond samples above it.
// The ladder stops at p95: on a shared 2-vCPU host, stalls that other
// tenants cause decide the higher percentiles, whose run-to-run spread
// (a third of the median for serve-mix's p99) swamps any real change.
// serve-mix's p95 is the middle of its cold requests.
var tailLadder = []float64{50, 75, 90, 95}

// tailBeyond is how many samples must lie beyond a percentile for it to
// count as a tail.
const tailBeyond = 10

// summary describes one sample of timings or sizes.
type summary struct {
	n       int
	median  float64
	q1, q3  float64 // first and third quartiles
	tail    float64 // value at tailPct
	tailPct float64 // percentile of tail; 0 when the sample is too small for any
}

// summarize computes the median, quartiles and tail of xs (which it does not
// modify). An empty sample gives the zero summary.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{n: len(s), median: median(s)}
	out.q1, out.q3 = quartiles(s)
	out.tail, out.tailPct = tail(s)
	return out
}

// median returns the middle of sorted s (the mean of the middle two when
// len(s) is even).
func median(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of sorted s by the
// "exclusive" method, the default of Python's statistics.quantiles(n=4), so
// the spreads this program prints match the ones computed from its output.
// A single sample is its own quartiles.
func quartiles(s []float64) (q1, q3 float64) {
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// tail returns the value at the highest tailLadder percentile of sorted s
// that has at least tailBeyond samples beyond it, by nearest rank, and that
// percentile. When no percentile qualifies (fewer than 2*tailBeyond
// samples) it returns the median and percentile 0.
func tail(s []float64) (value, pct float64) {
	n := len(s)
	for i := len(tailLadder) - 1; i >= 0; i-- {
		p := tailLadder[i]
		k := int(math.Ceil(p / 100 * float64(n)))
		if k < 1 {
			k = 1
		}
		if n-k >= tailBeyond {
			return s[k-1], p
		}
	}
	return median(s), 0
}
