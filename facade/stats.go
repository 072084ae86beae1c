package facade

import (
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/offheap"
)

// RunStats is the public, JSON-marshalable view of everything a run
// measured: heap and collector counters, off-heap page-store counters,
// interpreter counters, per-class allocation counts, and the full
// observability snapshot (named counters, gauges, histograms, events).
// Every type is reachable under a facade name, so callers can report on a
// run without importing internal/vm or internal/heap.
type RunStats struct {
	Heap     HeapStats     `json:"heap"`
	Offheap  OffheapStats  `json:"offheap"`
	VM       VMStats       `json:"vm"`
	Faults   FaultStats    `json:"faults"`
	Recovery RecoveryStats `json:"recovery"`
	Analysis AnalysisStats `json:"analysis"`

	// ClassAllocs counts heap allocations per class name; array
	// allocations appear under "[]elem" keys.
	ClassAllocs map[string]int64 `json:"class_allocs"`

	Counters   map[string]int64     `json:"counters"`
	Gauges     map[string]int64     `json:"gauges"`
	Histograms map[string]Histogram `json:"histograms"`
	Events     []Event              `json:"events,omitempty"`
}

// HeapStats is the managed heap's counter snapshot.
type HeapStats = heap.Stats

// OffheapStats is the native page store's counter snapshot; zero for
// untransformed programs. The tiering counters are all zero — and omitted
// from the JSON encoding — when the run had no disk tier (WithTiering).
type OffheapStats = offheap.Stats

// FaultStats counts the injected faults a run absorbed (all zero unless
// the run was configured with WithFaults).
type FaultStats struct {
	HeapAllocInjected   int64 `json:"heap_alloc_injected"`
	PageAcquireInjected int64 `json:"page_acquire_injected"`
	TierSpillInjected   int64 `json:"tier_spill_injected,omitempty"`
	TierLoadInjected    int64 `json:"tier_load_injected,omitempty"`
}

// RecoveryStats reads the recovery.* counters of the run's VM registry.
// The engines count recovery in their own per-run registries (the
// cluster's for GPS and Hyracks, the engine VM's for GraphChi) and none
// runs under Run, so these are always zero here; the struct stays
// because facade.job/v1 carries it.
type RecoveryStats struct {
	Checkpoints        int64 `json:"checkpoints"`
	CheckpointBytes    int64 `json:"checkpoint_bytes"`
	CheckpointsDropped int64 `json:"checkpoints_dropped"`
	Restores           int64 `json:"restores"`
	NodeRestarts       int64 `json:"node_restarts"`
	TaskRetries        int64 `json:"task_retries"`
	TasksDegraded      int64 `json:"tasks_degraded"`
	IntervalRetries    int64 `json:"interval_retries"`
	WorkerRestarts     int64 `json:"worker_restarts"`
	BudgetHalvings     int64 `json:"budget_halvings"`
}

// AnalysisStats mirrors the static-analysis counters: functions checked by
// the IR verifier and findings raised by the facade-safety linter (both
// populated when the run used WithVerify), the instructions removed by
// dead-code elimination when the program was transformed.
type AnalysisStats struct {
	VerifiedFuncs int64 `json:"verify_funcs"`
	LintFindings  int64 `json:"lint_findings"`
	DCERemoved    int64 `json:"dce_removed"`
}

// VMStats mirrors the interpreter's execution counters.
type VMStats struct {
	Instructions      int64 `json:"instructions"`
	BoundaryCrossings int64 `json:"boundary_crossings"`
	FacadePoolHits    int64 `json:"facade_pool_hits"`
}

// Histogram is the public mirror of a fixed-bucket histogram snapshot.
// Counts[i] holds observations <= Bounds[i]; the final entry of Counts is
// the overflow bucket.
type Histogram struct {
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
	Min    int64   `json:"min"`
	Max    int64   `json:"max"`
}

// Quantile estimates the q-th quantile (0 <= q <= 1) from the buckets,
// clamped to the observed min/max. Returns 0 for an empty histogram.
func (h Histogram) Quantile(q float64) int64 {
	return h.snap().Quantile(q)
}

// Mean returns the average observation, or 0 for an empty histogram.
func (h Histogram) Mean() float64 { return h.snap().Mean() }

func (h Histogram) snap() obs.HistogramSnapshot {
	return obs.HistogramSnapshot{
		Bounds: h.Bounds, Counts: h.Counts,
		Count: h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max,
	}
}

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
	st := RunStats{
		Heap:        r.VM.Heap.Stats(),
		ClassAllocs: r.VM.Heap.ClassAllocCounts(),
	}
	if r.VM.RT != nil {
		st.Offheap = r.VM.RT.Stats()
	}
	snap := r.VM.Obs().Snapshot()
	st.VM = VMStats{
		Instructions:      snap.Counters[obs.CtrInstructions],
		BoundaryCrossings: snap.Counters[obs.CtrBoundaryCalls],
		FacadePoolHits:    snap.Counters[obs.CtrFacadePoolHits],
	}
	st.Faults = FaultStats{
		HeapAllocInjected:   snap.Counters[obs.CtrFaultHeapAlloc],
		PageAcquireInjected: snap.Counters[obs.CtrFaultPageAcquire],
		TierSpillInjected:   snap.Counters[obs.CtrFaultTierSpill],
		TierLoadInjected:    snap.Counters[obs.CtrFaultTierLoad],
	}
	st.Recovery = RecoveryStats{
		Checkpoints:        snap.Counters[obs.CtrCheckpoints],
		CheckpointBytes:    snap.Counters[obs.CtrCheckpointBytes],
		CheckpointsDropped: snap.Counters[obs.CtrCheckpointsDropped],
		Restores:           snap.Counters[obs.CtrRestores],
		NodeRestarts:       snap.Counters[obs.CtrNodeRestarts],
		TaskRetries:        snap.Counters[obs.CtrTaskRetries],
		TasksDegraded:      snap.Counters[obs.CtrTasksDegraded],
		IntervalRetries:    snap.Counters[obs.CtrIntervalRetries],
		WorkerRestarts:     snap.Counters[obs.CtrWorkerRestarts],
		BudgetHalvings:     snap.Counters[obs.CtrBudgetHalvings],
	}
	st.Analysis = AnalysisStats{
		VerifiedFuncs: snap.Counters[obs.CtrVerifyFuncs],
		LintFindings:  snap.Counters[obs.CtrLintFindings],
		DCERemoved:    snap.Counters[obs.CtrDCERemoved],
	}
	st.Counters = snap.Counters
	st.Gauges = snap.Gauges
	st.Histograms = make(map[string]Histogram, len(snap.Histograms))
	for name, h := range snap.Histograms {
		st.Histograms[name] = Histogram{
			Bounds: h.Bounds, Counts: h.Counts,
			Count: h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max,
		}
	}
	st.Events = snap.Events
	return st
}
