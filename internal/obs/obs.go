// Package obs is the runtime observability layer: low-overhead atomic
// counters, gauges, and fixed-bucket histograms, plus a bounded event ring
// buffer, collected under a Registry whose Snapshot marshals to JSON.
//
// The layers that matter to the paper's evaluation publish here:
//
//   - internal/heap records per-collection pause times (minor/full),
//     safepoint wait times, allocation sizes, promoted/evacuated bytes,
//     remembered-set scan counts and every other count heap.Stats reports;
//   - internal/offheap records page acquire/release/recycle traffic, the
//     live-page and byte high-water marks and every other count
//     offheap.Stats reports;
//   - internal/vm records instructions executed, boundary crossings, and
//     facade-pool hits;
//   - the framework engines (graphchi, hyracks, gps) emit iteration and
//     phase events.
//
// Hot paths hold direct pointers to their instruments — the Registry map
// is consulted only at creation and snapshot time, so an Observe or Add
// costs one or two atomic operations.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value with high-water tracking.
type Gauge struct {
	v  atomic.Int64
	hw atomic.Int64
}

// Set stores v and raises the high-water mark if exceeded.
func (g *Gauge) Set(v int64) {
	g.v.Store(v)
	g.raise(v)
}

// Add adjusts the gauge by d and returns the new value, raising the
// high-water mark if exceeded.
func (g *Gauge) Add(d int64) int64 {
	v := g.v.Add(d)
	g.raise(v)
	return v
}

func (g *Gauge) raise(v int64) {
	for {
		cur := g.hw.Load()
		if v <= cur || g.hw.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// HighWater returns the largest value the gauge has held.
func (g *Gauge) HighWater() int64 { return g.hw.Load() }

// Registry names and owns a process's instruments. The zero value is not
// usable; call NewRegistry.
type Registry struct {
	start time.Time

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	events *Ring
}

// NewRegistry creates an empty registry with a default-capacity event
// ring.
func NewRegistry() *Registry {
	return &Registry{
		start:    time.Now(),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		events:   NewRing(DefaultRingCapacity),
	}
}

// Counter returns the counter registered under name, creating it on first
// use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket bounds on first use. Later calls ignore bounds.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Emit records an event in the ring buffer, stamped with nanoseconds since
// the registry was created.
func (r *Registry) Emit(kind, label string, a, b, c int64) {
	r.events.Append(Event{
		Nanos: time.Since(r.start).Nanoseconds(),
		Kind:  kind,
		Label: label,
		A:     a,
		B:     b,
		C:     c,
	})
}

// Events returns the registry's event ring.
func (r *Registry) Events() *Ring { return r.events }

// Snapshot captures every instrument's current value. It is safe to call
// concurrently with updates; individual values are atomically read but the
// snapshot as a whole is not a consistent cut.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make(map[string]int64, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c.Load()
	}
	gauges := make(map[string]int64, len(r.gauges)*2)
	for n, g := range r.gauges {
		gauges[n] = g.Load()
		gauges[n+".hw"] = g.HighWater()
	}
	hists := make(map[string]HistogramSnapshot, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h.Snapshot()
	}
	r.mu.Unlock()
	return Snapshot{
		Counters:   counters,
		Gauges:     gauges,
		Histograms: hists,
		Events:     r.events.Snapshot(),
	}
}

// Snapshot is a JSON-marshalable capture of a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Events     []Event                      `json:"events,omitempty"`
}

// Instrument names used across the runtime. Centralized so reports and
// dashboards do not chase string literals through the packages.
const (
	// Heap (internal/heap).
	HistGCPause       = "heap.gc_pause_ns"       // every stop-the-world pause
	HistGCPauseMinor  = "heap.gc_minor_pause_ns" // minor collections only
	HistGCPauseFull   = "heap.gc_full_pause_ns"  // full collections only
	HistSafepointWait = "heap.safepoint_wait_ns" // mutator wait at safepoints
	HistAllocSize     = "heap.alloc_size_bytes"  // per-allocation sizes
	CtrPromotedBytes  = "heap.promoted_bytes"    // bytes evacuated young->old by minor GCs
	CtrEvacuated      = "heap.evacuated_bytes"   // bytes moved by full-GC compaction
	CtrRemsetScanned  = "heap.remset_slots_scanned"
	CtrPromoted       = "heap.promoted"            // objects promoted young->old
	CtrMarked         = "heap.marked_nodes"        // objects traced across all collections
	GaugeHeapUsed     = "heap.used_bytes"          // live+garbage bytes present; .hw is the peak
	GaugeLiveAfterGC  = "heap.live_after_gc_bytes" // live bytes measured at the last full GC

	// Off-heap page store (internal/offheap).
	CtrPageAcquires    = "offheap.page_acquires"
	CtrPageReleases    = "offheap.page_releases"
	CtrPageRecycles    = "offheap.page_recycles"
	GaugePagesLive     = "offheap.pages_live"
	CtrPagesCreated    = "offheap.pages_created"    // pages allocated rather than recycled
	CtrOversize        = "offheap.oversize"         // oversize (> PageSize) page allocations
	CtrManagers        = "offheap.managers"         // page managers created
	CtrRecordsReleased = "offheap.records_released" // records of released page managers
	GaugeBytesInUse    = "offheap.bytes_in_use"     // DRAM bytes held by live pages; .hw is the peak

	// Disk tier (internal/offheap tiering).
	CtrPagesSpilled    = "offheap.pages_spilled"    // evictions DRAM -> disk
	CtrPagesPromoted   = "offheap.pages_promoted"   // promotions disk -> DRAM
	CtrSpillBytes      = "offheap.spill_bytes"      // bytes written to the spill file
	CtrPromoteBytes    = "offheap.promote_bytes"    // bytes read back from the spill file
	GaugePagesResident = "offheap.pages_resident"   // live pages currently in DRAM
	GaugePagesDisk     = "offheap.pages_disk"       // live pages currently spilled
	HistSpillStall     = "offheap.spill_stall_ns"   // per-eviction write stall
	HistPromoteStall   = "offheap.promote_stall_ns" // per-promotion read stall

	// VM (internal/vm).
	CtrInstructions   = "vm.instructions"
	CtrBoundaryCalls  = "vm.boundary_crossings"
	CtrFacadePoolHits = "vm.facade_pool_hits"

	// Fault injection (internal/faults consumers).
	CtrFaultHeapAlloc   = "faults.heap_alloc_injected"   // injected allocation failures
	CtrFaultPageAcquire = "faults.page_acquire_injected" // injected page-acquire failures
	CtrFaultTierSpill   = "faults.tier_spill_injected"   // injected spill-write failures
	CtrFaultTierLoad    = "faults.tier_load_injected"    // injected promotion-read failures

	// Recovery, counted once per run: in the cluster's registry for GPS
	// and Hyracks, in the VM's for GraphChi.
	CtrCheckpoints        = "recovery.checkpoints"         // superstep checkpoints taken
	CtrCheckpointBytes    = "recovery.checkpoint_bytes"    // codec-encoded checkpoint payload
	CtrCheckpointsDropped = "recovery.checkpoints_dropped" // superseded checkpoints released
	CtrRestores           = "recovery.restores"            // checkpoint restores (crash or OOM)
	CtrNodeRestarts       = "recovery.node_restarts"       // node VMs rebuilt after a crash
	CtrTaskRetries        = "recovery.task_retries"        // map/reduce tasks re-executed
	CtrTasksDegraded      = "recovery.tasks_degraded"      // tasks drained to a healthy node
	CtrIntervalRetries    = "recovery.interval_retries"    // GraphChi sub-iterations replayed from shard
	CtrWorkerRestarts     = "recovery.worker_restarts"     // GraphChi update workers rebuilt
	CtrBudgetHalvings     = "recovery.budget_halvings"     // GraphChi memory-budget degradations
	CtrCrashes            = "recovery.crashes"             // planned node/worker crashes survived
	CtrOOMRecoveries      = "recovery.oom_recoveries"      // out-of-memory failures recovered

	// Static analysis (internal/analysis via facade.Run).
	CtrDCERemoved = "analysis.dce_removed" // instructions removed by dead-code elimination

	// Daemon (internal/server, the repro serve runtime-as-a-service layer).
	CtrServerSubmitted  = "server.jobs_submitted"      // jobs accepted into the queue
	CtrServerDone       = "server.jobs_done"           // jobs finished successfully
	CtrServerFailed     = "server.jobs_failed"         // jobs finished with an error
	CtrServerCanceled   = "server.jobs_canceled"       // jobs canceled (client or timeout)
	CtrServerRejected   = "server.jobs_rejected"       // submissions rejected by admission control
	CtrServerWarmHits   = "server.warm_hits"           // jobs served by a pooled warm VM
	CtrServerWarmMisses = "server.warm_misses"         // jobs that had to build a fresh VM
	CtrServerPoolDrops  = "server.pool_rebuilds"       // pool entries dropped for rebuild (failed re-verify)
	GaugeServerRunning  = "server.jobs_running"        // jobs currently executing
	GaugeServerQueued   = "server.queue_depth"         // jobs waiting for admission
	GaugeServerReserved = "server.heap_reserved_bytes" // aggregate heap budget reserved by admitted jobs
	GaugeServerWarmPool = "server.warm_pool_size"      // VMs parked in the warm pool

	// Daemon crash safety (journal, replay, retry, drain — docs/SERVER.md).
	CtrServerJournalEvents = "server.journal_events" // events appended to the job journal
	CtrServerJournalSyncs  = "server.journal_syncs"  // fsync batches committed (group commit)
	CtrServerReplayed      = "server.jobs_replayed"  // non-terminal jobs re-enqueued by startup replay
	CtrServerRetried       = "server.jobs_retried"   // transient failures automatically re-run
	CtrServerDeadline      = "server.jobs_deadline"  // jobs failed by their deadline_ms
	GaugeServerReplaying   = "server.replaying"      // 1 while recovered jobs are still re-running
	GaugeServerDraining    = "server.draining"       // 1 while a SIGTERM drain is in progress

	// Event kinds.
	EvGC             = "gc"         // label minor|full, A=pause ns, B=promoted objs (minor) / live bytes (full)
	EvIteration      = "iteration"  // label start|end, A=iteration ordinal
	EvPhase          = "phase"      // label map|reduce|superstep..., A=ordinal
	EvManagerRelease = "pm_release" // A=iterID, B=threadID, C=pages released
	EvFault          = "fault"      // label = fault point, A=occurrence count
	EvCheckpoint     = "checkpoint" // label save|restore|drop, A=superstep, B=payload bytes
	EvRecovery       = "recovery"   // label crash|oom, A=node/worker, B=occasion (superstep/phase/sub-iteration)
	EvDegraded       = "degraded"   // label map|reduce|interval, A=failed node / first vertex, B=helper node / new edge budget
)
