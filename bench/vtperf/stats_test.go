package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 50, 7},
		{[]float64{7}, 99, 7},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0, 1},
		{[]float64{1, 2, 3, 4, 5}, 100, 5},
		{[]float64{1, 2, 3, 4, 5}, 90, 4.6},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	percentile(in, 50)
	if in[0] != 3 {
		t.Error("percentile reordered its input")
	}
}

// The guide's rule: quote the highest percentile with at least ten
// samples beyond it, and only the median below a hundred samples.
func TestHighestSupported(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {3, 0, false}, {99, 0, false},
		{100, 90, true}, {199, 90, true},
		{200, 95, true}, {286, 95, true}, {999, 95, true},
		{1000, 99, true}, {9999, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		got, ok := highestSupported(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestSupported(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestSummarize(t *testing.T) {
	if s := summarize(nil); s.N != 0 || s.TailP != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	small := summarize([]float64{3, 1, 2})
	if small.N != 3 || small.Median != 2 || small.Min != 1 || small.Max != 3 || small.TailP != 0 {
		t.Errorf("small summary = %+v", small)
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	big := summarize(xs)
	if big.N != 200 || big.TailP != 95 || !near(big.Tail, 190.05) || !near(big.Median, 100.5) {
		t.Errorf("big summary = %+v", big)
	}
}

// Values from CPython: statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{2.95, 3.01, 2.99, 3.40, 2.97, 3.02, 3.00, 2.96, 3.05, 2.98}, 2.9675, 3.0275},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if q1, _ := quartiles([]float64{1}); !math.IsNaN(q1) {
		t.Error("one sample has no quartiles")
	}
	if s := spreadShare([]float64{1, 2, 3, 4}); !near(s, 1) {
		t.Errorf("spreadShare = %v, want 1", s)
	}
}

func TestWorsening(t *testing.T) {
	cases := []struct {
		better string
		a, b   float64
		want   float64
	}{
		{"lower", 10, 11, 0.1},
		{"lower", 10, 9, -0.1},
		{"higher", 10, 9, 0.1},
		{"higher", 10, 12, -0.2},
		{"lower", 0, 5, 0},
	}
	for _, c := range cases {
		if got := worsening(c.better, c.a, c.b); !near(got, c.want) {
			t.Errorf("worsening(%s, %v, %v) = %v, want %v", c.better, c.a, c.b, got, c.want)
		}
	}
}
