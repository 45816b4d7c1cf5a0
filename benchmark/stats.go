package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0..1) of vals by nearest rank. It
// sorts a copy, so callers may keep appending to vals. An empty sample
// yields 0, which only bypassed layers ever report.
func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is the
// rule the acceptance driver applies to ten runs of each workload.
func quartiles(vals []float64) (q1, q3 float64) {
	n := len(vals)
	if n < 2 {
		if n == 1 {
			return vals[0], vals[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(k int) float64 {
		// position k*(n+1)/4, 1-indexed, interpolated and clamped
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		frac := pos - float64(j)
		if j < 1 {
			j, frac = 1, 0
		}
		if j >= n {
			j, frac = n-1, 1
		}
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// relSpread is the interquartile distance as a share of the median.
func relSpread(vals []float64) float64 {
	m := median(vals)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return (q3 - q1) / math.Abs(m)
}

func sum(vals []float64) float64 {
	t := 0.0
	for _, v := range vals {
		t += v
	}
	return t
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
