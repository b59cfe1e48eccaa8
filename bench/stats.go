package main

import (
	"math"
	"sort"
	"time"
)

// sample is a set of measurements of one quantity.
type sample []float64

func (s *sample) add(v float64) { *s = append(*s, v) }

func (s sample) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// scaledBy returns the sample in another unit.
func (s sample) scaledBy(k float64) sample {
	c := make(sample, len(s))
	for i, v := range s {
		c[i] = v * k
	}
	return c
}

func (s sample) median() float64 { return percentile(s.sorted(), 0.5) }

// tail is the highest percentile the sample supports, capped at cap (see
// tailLevel).
func (s sample) tail(cap float64) float64 {
	return percentile(s.sorted(), tailLevel(len(s), cap))
}

func (s sample) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func (s sample) max() float64 {
	m := math.Inf(-1)
	for _, v := range s {
		m = math.Max(m, v)
	}
	return m
}

func (s sample) min() float64 {
	m := math.Inf(1)
	for _, v := range s {
		m = math.Min(m, v)
	}
	return m
}

func millis(d time.Duration) float64 { return d.Seconds() * 1e3 }

// worseBy is how much worse v is than base as a share of base, in the
// metric's own direction (negative: better).
func worseBy(def *metricDef, base, v float64) float64 {
	if def.Better == "higher" {
		return (base - v) / base
	}
	return (v - base) / base
}

// percentile is the nearest-rank percentile of an ascending slice: the
// smallest value with at least p of the sample at or below it. The median of
// an even-sized sample is the mean of the two middle values.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p == 0.5 && n%2 == 0 {
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// tailLevel is the reporting rule for a tail latency: the highest percentile
// that still has at least ten samples beyond it, capped at the percentile
// the metric is named after. With fewer than twenty samples no percentile
// above the median qualifies and the median is reported.
func tailLevel(n int, cap float64) float64 {
	if n < 20 {
		return 0.5
	}
	// nearest rank ceil(p*n) must leave ten samples above it
	p := float64(n-10) / float64(n)
	if p > cap {
		p = cap
	}
	return p
}

// quartileSpread is the acceptance statistic of the benchmark contract: the
// distance between the first and third quartile as a share of the median,
// with the quartiles Python's statistics.quantiles(values, n=4) gives
// (exclusive method).
func quartileSpread(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	med := percentile(s, 0.5)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}
