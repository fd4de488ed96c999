package main

import (
	"fmt"
	"math"
	"sort"
)

// summary is one metric over a run's samples: the median and quartiles of
// the per-op values, and how many ops contributed.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize returns the median and quartiles of xs. Quartiles follow the
// exclusive method of Python's statistics.quantiles(n=4), which is also how
// run-to-run spreads of these medians are judged; with fewer than two
// samples both quartiles equal the median.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return summary{}
	}
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	if n < 2 {
		return summary{Median: med, Q1: med, Q3: med, N: n}
	}
	q := func(k float64) float64 {
		m := k * float64(n+1) / 4 // 1-based fractional rank
		j := int(math.Floor(m))
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (m-float64(j))*(s[j]-s[j-1])
	}
	return summary{Median: med, Q1: q(1), Q3: q(3), N: n}
}

// iqrShare is the interquartile range as a share of the reported value,
// the spread a bound is compared against. A zero value reports zero.
func (s summary) iqrShare(value float64) float64 {
	if value == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(value)
}

// tailMinBeyond is how many samples must lie strictly beyond a percentile
// before it is reported: fewer, and the value is one or two outliers.
const tailMinBeyond = 10

// nearestRank returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank method — the smallest sample with at least p% of the
// samples at or below it — with no interpolation, so the value is always
// an observed sample. ok is false when fewer than tailMinBeyond samples
// lie beyond that rank.
func nearestRank(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p > 100 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// The epsilon keeps an exact rank such as 98.9% of 1000 from rounding
	// up past itself in floating point.
	k := int(math.Ceil(p/100*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	return s[k-1], n-k >= tailMinBeyond
}

// resolved is nearestRank as a metric value: 0 when unresolved.
func resolved(xs []float64, p float64) (float64, bool) {
	v, ok := nearestRank(xs, p)
	if !ok {
		return 0, false
	}
	return v, true
}

// tail renders a nearest-rank percentile the way reports print it: the
// value only when it is resolved, always with the sample count.
func tail(xs []float64, p float64) string {
	v, ok := nearestRank(xs, p)
	if !ok {
		return fmt.Sprintf("p%g=- (n=%d)", p, len(xs))
	}
	return fmt.Sprintf("p%g=%.3f (n=%d)", p, v, len(xs))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
