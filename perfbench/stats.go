package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the
// method the benchmark's spread rule is stated in.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		// Python's exclusive method: j = i*(n+1)//4 clamped to
		// 1..n-1, then linear interpolation (or extrapolation, once
		// clamped) between s[j-1] and s[j].
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of tailPercentiles
// that has at least ten samples beyond it, and its value (nearest-rank
// on the sorted samples). ok is false when even the median has fewer
// than ten samples above it.
func tailPercentile(xs []float64) (pct, value float64, ok bool) {
	s := sortedCopy(xs)
	n := len(s)
	for _, p := range tailPercentiles {
		rank := nearestRank(p, n)
		if n-rank >= 10 {
			return p, s[rank-1], true
		}
	}
	return 0, 0, false
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 0
	}
	return s[nearestRank(p, len(s))-1]
}

// nearestRank is the 1-based nearest-rank index of the p-th percentile
// of n samples, computed in integers so that p99.9 of 20000 samples is
// rank 19980 exactly.
func nearestRank(p float64, n int) int {
	perMille := int64(math.Round(p * 10))
	rank := int((perMille*int64(n) + 999) / 1000)
	return max(rank, 1)
}

// geomean returns the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validateMetrics checks every metric name against the benchmark's
// naming rule and every value for finiteness.
func validateMetrics(ms map[string]metric) error {
	for name, m := range ms {
		if !metricName.MatchString(name) {
			return fmt.Errorf("metric name %q does not match %s", name, metricName)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return nil
}
