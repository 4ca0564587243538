package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- {
		s = append(s, time.Duration(i)*time.Millisecond)
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{
		{50, 50 * time.Millisecond},
		{99, 99 * time.Millisecond},
		{99.5, 100 * time.Millisecond},
		{100, 100 * time.Millisecond},
		{0.1, time.Millisecond},
	} {
		if got := s.percentile(c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := s.beyond(s.percentile(99)); got != 1 {
		t.Errorf("beyond p99 = %d, want 1", got)
	}
	if got := (samples{}).percentile(50); got != 0 {
		t.Errorf("empty p50 = %v", got)
	}
	if got := (samples{7}).percentile(99); got != 7 {
		t.Errorf("single-sample p99 = %v", got)
	}
}

// The expected values are Python's statistics.quantiles(values, n=4) and
// statistics.median for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		values       []float64
		q1, med, q3  float64
		wantedSpread float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, 1},
		{[]float64{3.5, 1.25, 9, 4, 4, 2}, 1.8125, 3.75, 5.25, 0.9166666666666666},
		{[]float64{10, 20}, 7.5, 15, 22.5, 1},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5, 1},
		{[]float64{0.91, 0.87, 1.02, 0.95, 0.99, 0.93, 0.97, 0.9, 1.05, 0.96},
			0.9075, 0.955, 0.9974999999999999, 0.09424083769633505},
	} {
		v := append([]float64(nil), c.values...)
		q1, med, q3 := quartiles(v)
		if !near(q1, c.q1) || !near(med, c.med) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.values, q1, med, q3, c.q1, c.med, c.q3)
		}
		if got := spread(append([]float64(nil), c.values...)); !near(got, c.wantedSpread) {
			t.Errorf("spread(%v) = %v, want %v", c.values, got, c.wantedSpread)
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }
