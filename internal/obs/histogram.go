package obs

import (
	"math"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram of int64 observations. Bucket i
// counts observations v with v <= bounds[i] (and > bounds[i-1]); one extra
// overflow bucket counts observations above the last bound. Observe is one
// binary search plus a handful of atomic adds and never allocates.
type Histogram struct {
	bounds []int64 // ascending upper bounds
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	min    atomic.Int64
	max    atomic.Int64
}

// NewHistogram creates a histogram with the given ascending bucket upper
// bounds. The bounds slice is not copied; callers must not mutate it.
func NewHistogram(bounds []int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	h := &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// Observe records one observation.
func (h *Histogram) Observe(v int64) {
	h.counts[h.BucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// BucketIndex returns the bucket Observe would count v in (binary search
// for the first bound >= v). Callers that batch observations thread-locally
// bucket with this and merge with ObserveBatch.
func (h *Histogram) BucketIndex(v int64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// NumBuckets returns the number of buckets, including the overflow bucket.
func (h *Histogram) NumBuckets() int { return len(h.counts) }

// ObserveBatch merges a batch of observations bucketed elsewhere: counts
// must have NumBuckets entries indexed by BucketIndex; sum, min, and max
// describe the batch. An empty batch (all-zero counts) is a no-op, so
// callers can flush unconditionally.
func (h *Histogram) ObserveBatch(counts []int64, sum, min, max int64) {
	var total int64
	for i, c := range counts {
		if c != 0 {
			h.counts[i].Add(c)
			total += c
		}
	}
	if total == 0 {
		return
	}
	h.count.Add(total)
	h.sum.Add(sum)
	for {
		cur := h.min.Load()
		if min >= cur || h.min.CompareAndSwap(cur, min) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if max <= cur || h.max.CompareAndSwap(cur, max) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of the observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Snapshot captures the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	if s.Count > 0 {
		s.Min = h.min.Load()
		s.Max = h.max.Load()
	}
	return s
}

// HistogramSnapshot is the JSON-marshalable capture of a Histogram.
// Counts has one entry per bound plus a final overflow bucket.
type HistogramSnapshot struct {
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
	Min    int64   `json:"min,omitempty"`
	Max    int64   `json:"max,omitempty"`
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the buckets: it
// returns the upper bound of the bucket holding the q-th observation,
// clamped to the observed min/max. Returns 0 for an empty histogram.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q >= 1 {
		return s.Max
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range s.Counts {
		seen += c
		if seen >= rank {
			var ub int64
			if i < len(s.Bounds) {
				ub = s.Bounds[i]
			} else {
				ub = s.Max // overflow bucket
			}
			if ub > s.Max {
				ub = s.Max
			}
			if ub < s.Min {
				ub = s.Min
			}
			return ub
		}
	}
	return s.Max
}

// Mean returns the average observation, or 0 for an empty histogram.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// ExponentialBounds returns n ascending bounds starting at start, each
// subsequent bound multiplied by factor (rounded up to stay strictly
// ascending).
func ExponentialBounds(start int64, factor float64, n int) []int64 {
	bounds := make([]int64, n)
	v := float64(start)
	for i := 0; i < n; i++ {
		b := int64(v)
		if i > 0 && b <= bounds[i-1] {
			b = bounds[i-1] + 1
		}
		bounds[i] = b
		v *= factor
	}
	return bounds
}

// Default bucket layouts. Pause and wait buckets span 1µs to ~17s in
// powers of two; allocation sizes span 16B to 8MB.
var (
	GCPauseBounds       = ExponentialBounds(1_000, 2, 25)
	SafepointWaitBounds = ExponentialBounds(1_000, 2, 25)
	AllocSizeBounds     = ExponentialBounds(16, 2, 20)
)
