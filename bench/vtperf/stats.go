package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailLadder are the tail percentiles a summary may quote, lowest first.
var tailLadder = []float64{90, 95, 99, 99.9}

// supported reports whether at least ten of n samples lie beyond the
// p-th percentile — the guide's condition for quoting it.
func supported(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= 10-1e-9 // 100-99.9 is not exact
}

// highestSupported returns the highest ladder percentile n samples
// support, and false when even the lowest has fewer than ten samples
// beyond it (then only the median is quoted).
func highestSupported(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailLadder {
		if supported(n, p) {
			best, ok = p, true
		}
	}
	return best, ok
}

// summary is how a timing is reported: the median, the highest tail
// percentile the sample count supports, the extremes, and the count.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// TailP is 0 when fewer than ten samples lie beyond every ladder
	// percentile; Tail is then meaningless and omitted.
	TailP float64 `json:"tail_p,omitempty"`
	Tail  float64 `json:"tail,omitempty"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := sorted(xs)
	out := summary{N: len(s), Median: median(s), Min: s[0], Max: s[len(s)-1]}
	if p, ok := highestSupported(len(s)); ok {
		out.TailP, out.Tail = p, percentile(s, p)
	}
	return out
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the default "exclusive" method),
// because that is the function the acceptance check uses. It needs at
// least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 {
		// CPython: j = i*(n+1)//4 clamped to 1..n-1, delta from the
		// clamped j, so tiny samples extrapolate exactly as it does.
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spreadShare is the interquartile distance as a share of the median:
// the run-to-run spread the acceptance check compares to a bound.
func spreadShare(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 || math.IsNaN(q1) {
		return math.NaN()
	}
	return math.Abs(q3-q1) / math.Abs(m)
}
