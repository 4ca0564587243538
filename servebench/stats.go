package main

import (
	"math"
	"sort"
	"time"
)

// samples is a set of latencies with the order statistics the report needs.
type samples []time.Duration

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of s,
// or 0 for an empty set. s is sorted in place.
func (s samples) percentile(p float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// beyond counts the samples strictly greater than d: how many observations
// a percentile rests on from above.
func (s samples) beyond(d time.Duration) int {
	n := 0
	for _, v := range s {
		if v > d {
			n++
		}
	}
	return n
}

// quartiles returns the first quartile, median and third quartile of
// values exactly as Python's statistics.quantiles(values, n=4) (the default
// "exclusive" method) and statistics.median compute them, so the spreads
// printed here agree with a Python analysis of the same results. A single
// value is all three; values is sorted in place.
func quartiles(values []float64) (q1, median, q3 float64) {
	sort.Float64s(values)
	n := len(values)
	if n < 2 {
		if n == 1 {
			return values[0], values[0], values[0]
		}
		return 0, 0, 0
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (values[j-1]*(4-delta) + values[j]*delta) / 4
	}
	if n%2 == 1 {
		median = values[n/2]
	} else {
		median = (values[n/2-1] + values[n/2]) / 2
	}
	return q(1), median, q(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise measure a metric's bound is judged against.
func spread(values []float64) float64 {
	q1, med, q3 := quartiles(values)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
