package obs

import "testing"

// vmSnapshot is the registry snapshot of a VM whose minor and full
// collections paused for the given nanoseconds, whose heap peaked at heap
// bytes and, when native >= 0, whose page store peaked at native bytes (a P
// VM, native < 0, registers no offheap gauge). Each gauge ends below its
// peak, so only the high-water keys carry the peaks.
func vmSnapshot(minor, full []int64, heap, native int64) Snapshot {
	r := NewRegistry()
	pause := r.Histogram(HistGCPause, GCPauseBounds)
	for _, p := range minor {
		pause.Observe(p)
		r.Histogram(HistGCPauseMinor, GCPauseBounds).Observe(p)
	}
	for _, p := range full {
		pause.Observe(p)
		r.Histogram(HistGCPauseFull, GCPauseBounds).Observe(p)
	}
	r.Gauge(GaugeHeapUsed).Set(heap)
	r.Gauge(GaugeHeapUsed).Set(heap / 2)
	if native >= 0 {
		r.Gauge(GaugeBytesInUse).Set(native)
		r.Gauge(GaugeBytesInUse).Set(0)
	}
	return r.Snapshot()
}

func TestMemoryOf(t *testing.T) {
	for _, tc := range []struct {
		name  string
		snaps []Snapshot
		want  Memory
	}{
		{"no VM", nil, Memory{}},
		{"a P VM has no offheap gauges",
			[]Snapshot{vmSnapshot([]int64{300, 500}, []int64{2000}, 4096, -1)},
			Memory{GT: 2800, PM: 4096, HeapPeak: 4096, MinorGCs: 2, FullGCs: 1}},
		{"a P' VM adds its native peak",
			[]Snapshot{vmSnapshot([]int64{100}, nil, 1000, 7000)},
			Memory{GT: 100, PM: 8000, HeapPeak: 1000, NativePeak: 7000, MinorGCs: 1}},
		{"times and counts add up over VMs",
			[]Snapshot{
				vmSnapshot([]int64{100, 200}, nil, 1000, -1),
				vmSnapshot([]int64{300}, []int64{4000}, 1000, -1),
				vmSnapshot(nil, []int64{5000, 6000}, 1000, -1),
			},
			Memory{GT: 15600, PM: 1000, HeapPeak: 1000, MinorGCs: 3, FullGCs: 3}},
		{"peaks on different VMs: PM is the worst single VM",
			[]Snapshot{
				vmSnapshot(nil, nil, 9000, 1000),
				vmSnapshot(nil, nil, 2000, 12000),
				vmSnapshot(nil, nil, 5000, 5000),
			},
			Memory{PM: 14000, HeapPeak: 9000, NativePeak: 12000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := MemoryOf(tc.snaps...); got != tc.want {
				t.Fatalf("MemoryOf = %+v, want %+v", got, tc.want)
			}
		})
	}
}
