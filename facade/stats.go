package facade

import (
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/offheap"
)

// RunStats is the public, JSON-marshalable view of everything a run
// measured. It is the run's observability snapshot — named counters,
// gauges, histograms and events, embedded — plus typed views of it: the
// heap's and the page store's Stats, which read the same instruments, the
// interpreter counters, and the per-class allocation counts. Every type is
// reachable under a facade name, so callers can report on a run without
// importing internal/vm or internal/heap.
type RunStats struct {
	Heap    HeapStats    `json:"heap"`
	Offheap OffheapStats `json:"offheap"`
	VM      VMStats      `json:"vm"`

	// ClassAllocs counts heap allocations per class name; array
	// allocations appear under "[]elem" keys.
	ClassAllocs map[string]int64 `json:"class_allocs,omitempty"`

	obs.Snapshot
}

// HeapStats is the managed heap's counter snapshot.
type HeapStats = heap.Stats

// OffheapStats is the native page store's counter snapshot; zero for
// untransformed programs. The tiering counters are all zero — and omitted
// from the JSON encoding — when the run had no disk tier (WithTiering).
type OffheapStats = offheap.Stats

// VMStats names the interpreter's three counters, the one table of counter
// names RunStats keeps. benchmark/serve.go reads Heap, Offheap and VM off a
// job's status, and the benchmark is a module of its own that changes only
// in changes to the benchmark, so the three views stay typed.
type VMStats struct {
	Instructions      int64 `json:"instructions"`
	BoundaryCrossings int64 `json:"boundary_crossings"`
	FacadePoolHits    int64 `json:"facade_pool_hits"`
}

// Histogram is a fixed-bucket histogram snapshot. Counts[i] holds
// observations <= Bounds[i]; the final entry of Counts is the overflow
// bucket. Quantile and Mean estimate from the buckets.
type Histogram = obs.HistogramSnapshot

// Event is one entry of the run's bounded event stream. Seq is a global
// sequence number (gaps mean the ring buffer overwrote older events), Nanos
// the emission time relative to the start of the run, Kind one of "gc",
// "iteration", "phase", "pm_release"; A, B, C are kind-specific payloads
// (for "gc": pause ns and bytes).
type Event = obs.Event

// GCPauses returns the overall GC pause histogram (nanoseconds), covering
// minor and full collections. Quantile gives p50/p95/... pause times.
func (s RunStats) GCPauses() Histogram { return s.Histograms[obs.HistGCPause] }

// Stats snapshots everything the run measured. The snapshot is
// internally consistent but the run should be complete (Call returned)
// for totals to be final.
func (r *Result) Stats() RunStats {
	snap := r.VM.Obs().Snapshot()
	st := RunStats{
		Heap:        r.VM.Heap.Stats(),
		ClassAllocs: r.VM.Heap.ClassAllocCounts(),
		VM: VMStats{
			Instructions:      snap.Counters[obs.CtrInstructions],
			BoundaryCrossings: snap.Counters[obs.CtrBoundaryCalls],
			FacadePoolHits:    snap.Counters[obs.CtrFacadePoolHits],
		},
		Snapshot: snap,
	}
	if r.VM.RT != nil {
		st.Offheap = r.VM.RT.Stats()
	}
	return st
}
