package main

import (
	"fmt"
	"slices"
	"sort"
)

// Workload names. Each is one set of seeded inputs; BENCHMARK.json records
// why it was chosen.
const (
	wGraphchiP      = "graphchi_p"
	wGraphchiP2     = "graphchi_p2"
	wGraphchiTiered = "graphchi_tiered"
	wHyracks        = "hyracks_wc_p2"
	wServeWarm      = "serve_warm"
	wServeCold      = "serve_cold"
	wCompile        = "compile_cold"
)

// End-to-end metric names.
const (
	mSetup     = "setup_s"
	mUnitRel   = "unit_best_rel"
	mUnitBest  = "unit_best_s"
	mProbe     = "probe_s"
	mUnitP50   = "unit_p50_s"
	mUnitP99   = "unit_p99_s"
	mUnitsPerS = "units_per_s"
	mPeakMB    = "peak_mb"
	mFailShare = "fail_share"
)

// aggKind says how a pass's observations of one metric become one value.
type aggKind int

const (
	aggP50   aggKind = iota // median over the observations
	aggMax                  // largest observation
	aggExact                // a count every step must reproduce bit for bit
)

// metric declares one reported number. The tables below are the single
// source of the names: BENCHMARK.json is checked against them by
// TestManifest, and a workload that reports an undeclared name fails.
type metric struct {
	name   string
	unit   string
	higher bool // higher is better
	// bound is the share of the baseline median an end-to-end metric may
	// worsen by; 0 on one that is reported for the reader only.
	bound float64
	agg   aggKind
	// only lists the workloads an end-to-end metric is defined on (nil =
	// every workload).
	only []string
	// zeroOK marks an end-to-end metric whose expected value is 0.
	zeroOK bool
	// moves and on are the interaction map of a per-layer metric: the
	// end-to-end metrics it should move, and on which workloads. On every
	// other workload the prediction is no change.
	moves []string
	on    []string
}

var (
	graphchiAll = []string{wGraphchiP, wGraphchiP2, wGraphchiTiered}
	serveBoth   = []string{wServeWarm, wServeCold}
	unitTime    = []string{mUnitRel, mUnitBest, mUnitP50}
	timeAndRate = []string{mUnitRel, mUnitBest, mUnitP50, mUnitP99, mUnitsPerS}
)

// endToEnd lists what a user of the system sees. The first three carry a
// bound and are BENCHMARK.json's end_to_end list: every workload reports
// them and none ever reads 0. The timing one is a ratio of two floors —
// the pass's fastest step over its fastest probe (probe.go) — because that
// is what repeats on a shared runner: measured here, the median of a 10 s
// run moved 11-30% from run to run, its fastest step 5-17%, the ratio less.
// The seconds behind it, the run's medians and its tail follow without a
// bound, for the reader; BENCHMARK.json carries them, and fail_share,
// under per_layer.
var endToEnd = []metric{
	{name: mSetup, unit: "s", bound: 0.25},
	{name: mUnitRel, unit: "probes", bound: 0.25},
	{name: mPeakMB, unit: "MB", bound: 0.03, agg: aggMax},
	{name: mUnitBest, unit: "s"},
	{name: mProbe, unit: "s"},
	{name: mUnitP50, unit: "s"},
	{name: mUnitsPerS, unit: "1/s", higher: true},
	{name: mUnitP99, unit: "s", only: serveBoth},
	{name: mFailShare, unit: "ratio", zeroOK: true},
}

var perLayer = []metric{
	// Compiler front to back: one observation per unit of compile_cold.
	{name: "lang.parse_s", unit: "s", moves: unitTime, on: []string{wCompile, wServeCold}},
	{name: "lang.check_s", unit: "s", moves: unitTime, on: []string{wCompile, wServeCold}},
	{name: "lower.lower_s", unit: "s", moves: unitTime, on: []string{wCompile, wServeCold}},
	{name: "core.transform_s", unit: "s", moves: unitTime, on: []string{wCompile, wServeCold}},
	{name: "analysis.verify_s", unit: "s", moves: unitTime, on: []string{wCompile, wServeCold}},
	{name: "analysis.lint_s", unit: "s", moves: unitTime, on: []string{wCompile, wServeCold}},
	{name: "analysis.lifetimes_s", unit: "s", moves: unitTime, on: []string{wCompile, wServeCold}},
	{name: "lang.source_bytes", unit: "B", agg: aggExact, moves: unitTime, on: []string{wCompile}},
	{name: "lower.ir_instrs", unit: "count", agg: aggExact, moves: unitTime, on: []string{wCompile}},
	{name: "core.ir_instrs_p2", unit: "count", agg: aggExact, moves: unitTime, on: []string{wCompile, wGraphchiP2}},
	{name: "analysis.dce_removed", unit: "count", agg: aggExact, moves: unitTime, on: []string{wCompile}},

	// Interpreter. P and P' share it: a dispatch win moves graphchi_p and
	// graphchi_p2 alike, which is how to tell it from a heap or page win.
	{name: "vm.build_s", unit: "s", moves: unitTime, on: []string{wServeCold, wGraphchiP, wGraphchiP2}},
	{name: "vm.run_self_s", unit: "s", moves: unitTime, on: []string{wGraphchiP, wGraphchiP2, wGraphchiTiered, wHyracks}},
	{name: "vm.instructions", unit: "count", agg: aggExact, moves: unitTime, on: []string{wGraphchiP, wGraphchiP2}},
	{name: "vm.boundary_crossings", unit: "count", agg: aggExact, moves: unitTime, on: []string{wGraphchiP2, wHyracks}},
	{name: "vm.facade_pool_hits", unit: "count", agg: aggExact, moves: unitTime, on: []string{wGraphchiP2, wHyracks}},

	// Managed heap: does the work on graphchi_p, next to none on P'.
	{name: "heap.gc_s", unit: "s", moves: unitTime, on: []string{wGraphchiP}},
	{name: "heap.gc_share", unit: "ratio", moves: unitTime, on: []string{wGraphchiP}},
	{name: "heap.safepoint_wait_s", unit: "s", moves: unitTime, on: []string{wGraphchiP}},
	{name: "heap.minor_gcs", unit: "count", moves: unitTime, on: []string{wGraphchiP}},
	{name: "heap.full_gcs", unit: "count", moves: unitTime, on: []string{wGraphchiP}},
	{name: "heap.alloc_bytes", unit: "B", moves: []string{mUnitRel, mUnitBest, mUnitP50, mPeakMB}, on: []string{wGraphchiP}},
	{name: "heap.alloc_objects", unit: "count", moves: unitTime, on: []string{wGraphchiP}},
	{name: "heap.promoted", unit: "count", moves: unitTime, on: []string{wGraphchiP}},
	{name: "heap.peak_mb", unit: "MB", agg: aggMax, moves: []string{mPeakMB}, on: []string{wGraphchiP}},

	// Native page store: the call-free fast path on graphchi_p2 and
	// hyracks_wc_p2, pinning and eviction on graphchi_tiered.
	{name: "offheap.pages_created", unit: "count", moves: []string{mUnitRel, mUnitBest, mUnitP50, mPeakMB}, on: []string{wGraphchiP2, wHyracks}},
	{name: "offheap.pages_recycled", unit: "count", moves: unitTime, on: []string{wGraphchiP2, wHyracks}},
	{name: "offheap.recycle_ratio", unit: "ratio", higher: true, moves: []string{mUnitRel, mUnitBest, mUnitP50, mPeakMB}, on: []string{wGraphchiP2, wHyracks}},
	{name: "offheap.records", unit: "count", agg: aggExact, moves: unitTime, on: []string{wGraphchiP2, wHyracks}},
	{name: "offheap.pages_live_hw", unit: "count", agg: aggMax, moves: []string{mPeakMB}, on: []string{wGraphchiP2, wHyracks}},
	{name: "offheap.peak_mb", unit: "MB", agg: aggMax, moves: []string{mPeakMB}, on: []string{wGraphchiP2, wHyracks}},
	{name: "offheap.pages_spilled", unit: "count", moves: unitTime, on: []string{wGraphchiTiered}},
	{name: "offheap.pages_promoted", unit: "count", moves: unitTime, on: []string{wGraphchiTiered}},
	{name: "offheap.spill_stall_s", unit: "s", moves: unitTime, on: []string{wGraphchiTiered}},
	{name: "offheap.promote_stall_s", unit: "s", moves: unitTime, on: []string{wGraphchiTiered}},

	// GraphChi engine. Load time is most of the run today, so it is the
	// first place to look; sharding and generation are set-up.
	{name: "graphchi.load_s", unit: "s", moves: unitTime, on: graphchiAll},
	{name: "graphchi.update_s", unit: "s", moves: unitTime, on: graphchiAll},
	{name: "graphchi.edges_per_s", unit: "1/s", higher: true, moves: unitTime, on: graphchiAll},
	{name: "graphchi.sub_iters", unit: "count", agg: aggExact, moves: unitTime, on: graphchiAll},
	{name: "graphchi.shard_s", unit: "s", moves: []string{mSetup}, on: graphchiAll},
	{name: "datagen.gen_s", unit: "s", moves: []string{mSetup}, on: []string{wGraphchiP, wGraphchiP2, wGraphchiTiered, wHyracks}},

	// Hyracks engine and the simulated cluster under it.
	{name: "hyracks.map_s", unit: "s", moves: unitTime, on: []string{wHyracks}},
	{name: "hyracks.reduce_s", unit: "s", moves: unitTime, on: []string{wHyracks}},
	{name: "hyracks.shuffled_mb", unit: "MB", agg: aggExact, moves: unitTime, on: []string{wHyracks}},
	{name: "cluster.frames_sent", unit: "count", agg: aggExact, moves: unitTime, on: []string{wHyracks}},
	{name: "cluster.bytes_sent", unit: "B", agg: aggExact, moves: unitTime, on: []string{wHyracks}},
	{name: "dfs.bytes_written", unit: "B", agg: aggExact, moves: unitTime, on: []string{wHyracks}},

	// Daemon. submit_ack overlaps queued: the journal commit happens after
	// the job is stamped queued, so deliver = latency - queued - running.
	{name: "server.submit_ack_s", unit: "s", moves: timeAndRate, on: []string{wServeWarm}},
	{name: "server.queued_s", unit: "s", moves: timeAndRate, on: []string{wServeWarm}},
	{name: "server.running_s", unit: "s", moves: timeAndRate, on: serveBoth},
	{name: "server.deliver_s", unit: "s", moves: timeAndRate, on: []string{wServeWarm}},
	{name: "server.warm_hit_ratio", unit: "ratio", higher: true, moves: timeAndRate, on: []string{wServeWarm}},
	{name: "server.rejected", unit: "count", agg: aggExact, moves: []string{mFailShare}, on: serveBoth},
	{name: "server.journal_events_per_job", unit: "count", agg: aggExact, moves: timeAndRate, on: []string{wServeWarm}},
	{name: "server.journal_bytes_per_job", unit: "B", moves: timeAndRate, on: []string{wServeWarm}},
	{name: "server.queue_depth_max", unit: "count", agg: aggMax, moves: []string{mUnitP99}, on: serveBoth},
	{name: "server.start_s", unit: "s", moves: []string{mSetup}, on: serveBoth},
	{name: "server.stop_s", unit: "s", moves: []string{mSetup}, on: serveBoth},
	{name: "server.overhead_s", unit: "s", moves: timeAndRate, on: []string{wServeWarm}},

	// The same jobs run straight through facade.RunContext.
	{name: "facade.warm_run_s", unit: "s", moves: timeAndRate, on: []string{wServeWarm}},
	{name: "facade.cold_run_s", unit: "s", moves: timeAndRate, on: []string{wServeCold}},

	// The trace's own cost and coverage, per workload.
	{name: "trace.overhead_ratio", unit: "ratio", moves: unitTime, on: allWorkloadNames},
	{name: "trace.unaccounted_share", unit: "ratio", moves: unitTime, on: allWorkloadNames},
}

var allWorkloadNames = []string{
	wGraphchiP, wGraphchiP2, wGraphchiTiered, wHyracks, wServeWarm, wServeCold, wCompile,
}

// uniform reports whether an end-to-end metric belongs in
// BENCHMARK.json's end_to_end list: bounded, defined on every workload,
// never 0.
func (m metric) uniform() bool { return m.bound > 0 && m.only == nil && !m.zeroOK }

// appliesTo reports whether an end-to-end metric is defined on workload w.
func (m metric) appliesTo(w string) bool {
	return m.only == nil || slices.Contains(m.only, w)
}

func (m metric) better() string {
	if m.higher {
		return "higher"
	}
	return "lower"
}

func findMetric(table []metric, name string) (metric, bool) {
	for _, m := range table {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// aggregate folds a pass's observations into one value per declared
// per-layer metric (0 where the workload observed nothing). It fails on an
// observation under an undeclared name and on an exact count that did not
// repeat across steps.
func aggregate(obs map[string][]float64) (map[string]float64, error) {
	names := make([]string, 0, len(obs))
	for name := range obs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := findMetric(perLayer, name); !ok {
			return nil, fmt.Errorf("observation under undeclared per-layer metric %q", name)
		}
	}
	out := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		xs := obs[m.name]
		switch {
		case len(xs) == 0:
			out[m.name] = 0
		case m.agg == aggMax:
			out[m.name] = slices.Max(xs)
		case m.agg == aggExact:
			for _, x := range xs {
				if x != xs[0] {
					return nil, fmt.Errorf("exact count %s did not repeat across steps: %v then %v", m.name, xs[0], x)
				}
			}
			out[m.name] = xs[0]
		default:
			out[m.name] = median(xs)
		}
	}
	return out, nil
}
