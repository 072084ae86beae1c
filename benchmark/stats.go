package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice. Every timing the
// benchmark reports goes through it: never a mean, never a single run.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-th percentile (0 < q < 1) of xs.
// It refuses when fewer than minBeyond samples lie beyond the returned
// one: a tail percentile read off a handful of samples is a single
// observation, not a statistic.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := n - 1 - idx; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[idx], nil
}

// rateBatches is how many equal consecutive batches batchRate splits a
// pass into.
const rateBatches = 10

// batchRate returns the median, over up to rateBatches equal consecutive
// batches of completions, of batch size divided by batch wall time, so one
// disturbed second cannot move it. ends are the completion offsets in
// seconds from the start of the pass (any order); a remainder that does
// not fill a batch is dropped from the tail.
func batchRate(ends []float64) float64 {
	n := len(ends)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), ends...)
	sort.Float64s(s)
	batches := rateBatches
	if n < batches {
		batches = n
	}
	size := n / batches
	rates := make([]float64, 0, batches)
	prev := 0.0
	for b := 0; b < batches; b++ {
		end := s[(b+1)*size-1]
		if wall := end - prev; wall > 0 {
			rates = append(rates, float64(size)/wall)
		}
		prev = end
	}
	return median(rates)
}
