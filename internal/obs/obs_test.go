package obs

import (
	"encoding/json"
	"math"
	"reflect"
	"sync"
	"testing"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	// One observation per interesting edge: below first bound, exactly on
	// each bound, between bounds, and past the last bound (overflow).
	for _, v := range []int64{1, 10, 11, 100, 101, 1000, 1001, 5000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []int64{2, 2, 2, 2} // (..10], (10..100], (100..1000], overflow
	if !reflect.DeepEqual(s.Counts, want) {
		t.Fatalf("bucket counts = %v, want %v", s.Counts, want)
	}
	if s.Count != 8 {
		t.Fatalf("count = %d, want 8", s.Count)
	}
	if s.Min != 1 || s.Max != 5000 {
		t.Fatalf("min/max = %d/%d, want 1/5000", s.Min, s.Max)
	}
	if s.Sum != 1+10+11+100+101+1000+1001+5000 {
		t.Fatalf("sum = %d", s.Sum)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]int64{10, 20, 40, 80})
	for i := int64(1); i <= 100; i++ {
		h.Observe(i) // 10 in b0, 10 in b1, 20 in b2, 40 in b3, 20 overflow
	}
	s := h.Snapshot()
	if q := s.Quantile(0.05); q != 10 {
		t.Fatalf("p5 = %d, want 10", q)
	}
	if q := s.Quantile(0.40); q != 40 {
		t.Fatalf("p40 = %d, want 40", q)
	}
	if q := s.Quantile(0.50); q != 80 {
		t.Fatalf("p50 = %d, want 80", q)
	}
	// Quantiles landing in the overflow bucket clamp to the observed max.
	if q := s.Quantile(0.95); q != 100 {
		t.Fatalf("p95 = %d, want 100", q)
	}
	if q := s.Quantile(1.0); q != 100 {
		t.Fatalf("p100 = %d, want 100", q)
	}
	if (HistogramSnapshot{}).Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
}

func TestHistogramQuantileClampsToMin(t *testing.T) {
	h := NewHistogram([]int64{1000, 2000})
	h.Observe(500)
	s := h.Snapshot()
	// The bucket upper bound (1000) overstates a single 500ns pause; the
	// estimate must clamp to the observed extremes.
	if q := s.Quantile(0.5); q != 500 {
		t.Fatalf("p50 = %d, want 500", q)
	}
}

func TestExponentialBounds(t *testing.T) {
	b := ExponentialBounds(1000, 2, 5)
	want := []int64{1000, 2000, 4000, 8000, 16000}
	if !reflect.DeepEqual(b, want) {
		t.Fatalf("bounds = %v, want %v", b, want)
	}
	// A factor of 1 must still produce strictly ascending bounds.
	flat := ExponentialBounds(5, 1, 4)
	for i := 1; i < len(flat); i++ {
		if flat[i] <= flat[i-1] {
			t.Fatalf("bounds not ascending: %v", flat)
		}
	}
}

func TestConcurrentCountersAndHistograms(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []int64{8, 64, 512})
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(int64(i % 1000))
				if i%100 == 0 {
					r.Emit(EvIteration, "start", int64(w), int64(i), 0)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.Load(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if g.Load() != 0 {
		t.Fatalf("gauge = %d, want 0", g.Load())
	}
	if g.HighWater() < 1 {
		t.Fatalf("gauge high-water = %d, want >= 1", g.HighWater())
	}
	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", s.Count, workers*perWorker)
	}
	var bucketSum int64
	for _, n := range s.Counts {
		bucketSum += n
	}
	if bucketSum != s.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, s.Count)
	}
	if r.Events().Total() != workers*perWorker/100 {
		t.Fatalf("events = %d, want %d", r.Events().Total(), workers*perWorker/100)
	}
}

func TestRingOverwriteKeepsNewest(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Append(Event{Kind: "k", A: int64(i)})
	}
	s := r.Snapshot()
	if len(s) != 4 {
		t.Fatalf("len = %d, want 4", len(s))
	}
	for i, e := range s {
		if want := int64(6 + i); e.A != want || e.Seq != uint64(want) {
			t.Fatalf("event %d = %+v, want A=Seq=%d", i, e, want)
		}
	}
	if r.Total() != 10 {
		t.Fatalf("total = %d, want 10", r.Total())
	}
}

// TestRingGrowsToItsLimit: a ring that grows as events arrive retains
// exactly what a preallocated one did — the newest DefaultRingCapacity
// events, oldest first, with global sequence numbers — and never holds
// more storage than its limit.
func TestRingGrowsToItsLimit(t *testing.T) {
	const extra = 10
	r := NewRing(DefaultRingCapacity)
	for i := 0; i < DefaultRingCapacity+extra; i++ {
		r.Append(Event{Kind: "k", A: int64(i)})
		if n := min(i+1, DefaultRingCapacity); r.Len() != n {
			t.Fatalf("after %d appends Len = %d, want %d", i+1, r.Len(), n)
		}
	}
	if r.Total() != DefaultRingCapacity+extra {
		t.Fatalf("total = %d, want %d", r.Total(), DefaultRingCapacity+extra)
	}
	if cap(r.buf) != DefaultRingCapacity {
		t.Fatalf("full ring holds %d slots, want %d", cap(r.buf), DefaultRingCapacity)
	}
	s := r.Snapshot()
	if len(s) != DefaultRingCapacity {
		t.Fatalf("snapshot len = %d, want %d", len(s), DefaultRingCapacity)
	}
	for i, e := range s {
		if want := int64(extra + i); e.A != want || e.Seq != uint64(want) {
			t.Fatalf("event %d = %+v, want A=Seq=%d", i, e, want)
		}
	}
}

// TestQuietRegistryHoldsNoEvents: a registry nothing emits into allocates
// no event storage.
func TestQuietRegistryHoldsNoEvents(t *testing.T) {
	r := NewRegistry()
	r.Counter(CtrInstructions).Add(1)
	if r.Events().Len() != 0 || r.Events().buf != nil {
		t.Fatalf("fresh registry holds %d events in %d slots", r.Events().Len(), cap(r.Events().buf))
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter(CtrInstructions).Add(42)
	r.Gauge(GaugePagesLive).Set(7)
	h := r.Histogram(HistGCPause, GCPauseBounds)
	h.Observe(1500)
	h.Observe(3_000_000)
	r.Emit(EvGC, "minor", 1500, 10, 0)

	snap := r.Snapshot()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, snap)
	}
	if back.Histograms[HistGCPause].Count != 2 {
		t.Fatalf("histogram lost observations: %+v", back.Histograms[HistGCPause])
	}
	if back.Counters[CtrInstructions] != 42 {
		t.Fatal("counter lost")
	}
	if len(back.Events) != 1 || back.Events[0].Kind != EvGC {
		t.Fatalf("events lost: %+v", back.Events)
	}
}

func TestRunReportJSON(t *testing.T) {
	rep := NewRunReport("table2/PR-8g", "P'")
	rep.WallNanos = 5e9
	rep.Metrics["et_s"] = 5.0
	rep.ClassAllocs = map[string]int64{"ChiVertex": 100}
	r := NewRegistry()
	r.Histogram(HistGCPause, GCPauseBounds).Observe(2000)
	rep.Obs = r.Snapshot()

	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back RunReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != ReportSchema || back.Name != "table2/PR-8g" {
		t.Fatalf("header lost: %+v", back)
	}
	if back.ClassAllocs["ChiVertex"] != 100 {
		t.Fatal("class allocs lost")
	}
	if back.Obs.Histograms[HistGCPause].Count != 1 {
		t.Fatal("obs snapshot lost")
	}
}

func TestQuantileMonotone(t *testing.T) {
	h := NewHistogram(GCPauseBounds)
	for i := 0; i < 500; i++ {
		h.Observe(int64(1000 + i*7919))
	}
	s := h.Snapshot()
	prev := int64(math.MinInt64)
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
		v := s.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone at q=%v: %d < %d", q, v, prev)
		}
		prev = v
	}
}
