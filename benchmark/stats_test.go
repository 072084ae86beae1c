package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{1, 1, 1, 100}, 1}, // one disturbed sample does not move it
	}
	for _, c := range cases {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Errorf("median reordered its input: %v", in)
	}
}

// ramp returns 1..n in descending order, so the q-th percentile is known.
func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i)
	}
	return xs
}

func TestPercentileRule(t *testing.T) {
	// 1000 samples leave exactly ten beyond the 99th percentile.
	got, err := percentile(ramp(1000), 0.99)
	if err != nil || got != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", got, err)
	}
	// One sample fewer leaves nine: refused.
	if _, err := percentile(ramp(999), 0.99); err == nil {
		t.Error("p99 of 999 samples was not refused")
	}
	// The engine workloads' twenty units support no tail percentile, and
	// not even a p50 reading under this rule once a unit is lost.
	if _, err := percentile(ramp(20), 0.90); err == nil {
		t.Error("p90 of 20 samples was not refused")
	}
	if got, err := percentile(ramp(20), 0.5); err != nil || got != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", got, err)
	}
	if _, err := percentile(ramp(19), 0.5); err == nil {
		t.Error("p50 of 19 samples was not refused")
	}
	if _, err := percentile(nil, 0.99); err == nil {
		t.Error("p99 of no samples was not refused")
	}
}

func TestBatchRate(t *testing.T) {
	// 100 completions, one every 10 ms: 100/s whichever way it is cut.
	var ends []float64
	for i := 1; i <= 100; i++ {
		ends = append(ends, float64(i)*0.01)
	}
	if got := batchRate(ends); math.Abs(got-100) > 1e-9 {
		t.Errorf("steady rate = %v, want 100", got)
	}
	// A one-second stall before the 35th completion lands in one batch of
	// ten; the median over batches does not move.
	stalled := append([]float64(nil), ends...)
	for i := 34; i < len(stalled); i++ {
		stalled[i]++
	}
	if got := batchRate(stalled); math.Abs(got-100) > 1e-9 {
		t.Errorf("rate with one stalled batch = %v, want 100", got)
	}
	// Completion order does not matter, and a short tail is dropped.
	if got := batchRate([]float64{0.3, 0.1, 0.2}); math.Abs(got-10) > 1e-9 {
		t.Errorf("rate of three = %v, want 10", got)
	}
	if got := batchRate(nil); got != 0 {
		t.Errorf("rate of none = %v, want 0", got)
	}
}
