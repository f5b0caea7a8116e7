package main

import (
	"math"
	"strings"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0}, {[]float64{3}, 3}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25}, // extrapolates once j is clamped
		{[]float64{5, 1, 3}, 1, 5},
	} {
		q1, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tailPercentile must sort
		}
		return xs
	}
	for _, c := range []struct {
		n        int
		pct, val float64
		ok       bool
	}{
		{5, 0, 0, false},
		{20, 50, 10, true},  // rank 10, ten samples beyond
		{100, 90, 90, true}, // p95 has only five beyond
		{2000, 99, 1980, true},
		{20000, 99.9, 19980, true},
	} {
		pct, val, ok := tailPercentile(seq(c.n))
		if pct != c.pct || val != c.val || ok != c.ok {
			t.Errorf("n=%d: got p%v=%v ok=%v, want p%v=%v ok=%v", c.n, pct, val, ok, c.pct, c.val, c.ok)
		}
	}
}

func TestMetricNames(t *testing.T) {
	for _, name := range []string{"setup_s", "cpu.sim_s", "sim.host_ns_per_cycle", "l2.per_kinst", "9lives", "a-b"} {
		if err := validateMetrics(map[string]metric{name: {1, "s"}}); err != nil {
			t.Errorf("%q rejected: %v", name, err)
		}
	}
	for _, name := range []string{"", "has space", "slash/y", "_lead", ".lead", "x+y", strings.Repeat("a", 65)} {
		if err := validateMetrics(map[string]metric{name: {1, "s"}}); err == nil {
			t.Errorf("%q accepted", name)
		}
	}
	if err := validateMetrics(map[string]metric{"x": {math.NaN(), "s"}}); err == nil {
		t.Error("NaN value accepted")
	}
}
