package facade

import (
	"fmt"
	"io"

	"repro/internal/faults"
	"repro/internal/vm"
)

// Option configures a Run or RunContext call (functional options).
type Option func(*runOptions)

type runOptions struct {
	heapSize     int
	entry        string
	randSeed     int64
	out          io.Writer
	observer     func(Event)
	faults       *faults.Config
	faultsErr    error
	faultAttempt int
	verify       bool
	gcWorkers    int
	reuseVM      *vm.VM
	pageQuota    int64
	tierDir      string
	tierHigh     int
	tierLow      int
}

func defaultRunOptions() runOptions {
	return runOptions{
		heapSize: 64 << 20,
		entry:    "Main.main",
		randSeed: 1,
	}
}

// WithHeapSize sets the managed heap budget in bytes (-Xmx). Default is
// 64 MiB.
func WithHeapSize(bytes int) Option {
	return func(o *runOptions) { o.heapSize = bytes }
}

// WithEntry sets the entry function key (default "Main.main"). For
// transformed programs the entry is remapped to the facade twin when the
// entry class was transformed.
func WithEntry(key string) Option {
	return func(o *runOptions) { o.entry = key }
}

// WithRandSeed seeds the deterministic Sys.rand source. The seed is honored
// exactly, including 0; a run without this option uses seed 1.
func WithRandSeed(seed int64) Option {
	return func(o *runOptions) { o.randSeed = seed }
}

// WithGCWorkers sets the collector's parallelism: the number of workers
// every stop-the-world collection (scavenge, mark and compaction) runs on.
// 0 picks the collector's default. Program output must not depend on this — the
// differential test battery runs the corpus across worker counts to
// enforce exactly that.
func WithGCWorkers(n int) Option {
	return func(o *runOptions) { o.gcWorkers = n }
}

// WithOutput duplicates Sys.print output to w as the program runs; the
// full output remains available from Result.Output.
func WithOutput(w io.Writer) Option {
	return func(o *runOptions) { o.out = w }
}

// WithObserver streams runtime events (GC cycles, iteration boundaries,
// page-manager releases) to fn as they happen. fn runs on VM threads and
// must be fast and must not call back into the VM.
func WithObserver(fn func(Event)) Option {
	return func(o *runOptions) { o.observer = fn }
}

// WithVerify runs the IR verifier and the facade-safety linter
// (internal/analysis) over the program before execution. A verifier error
// or any lint finding fails the Run call; the number of functions checked
// and findings raised appear in RunStats.Analysis and under the
// analysis.* counters.
func WithVerify() Option {
	return func(o *runOptions) { o.verify = true }
}

// WithReusedVM runs the program on a warm VM from a previous run instead of
// building a fresh one. The VM must have been built for the same *ir.Program
// and with the same heap size as this run requests; Run resets all job
// state (heap contents, statics, string cache, handles, RNG, counters) so
// output is bit-identical to a cold run, while the expensive parts — heap
// arena, dispatch tables, facade metadata, recycled page pool — stay warm.
// The reset fails (and the Run call errors) if the VM still has live
// threads or live pages, so a poisoned VM is never silently reused.
func WithReusedVM(m *vm.VM) Option {
	return func(o *runOptions) { o.reuseVM = m }
}

// WithPageQuota caps the number of live off-heap pages the run may hold at
// once. Exceeding the quota surfaces as offheap.ErrPageQuota, which wraps
// ErrPageExhausted and therefore rides the same degradation rails as real
// page exhaustion. 0 (the default) means unlimited. The repro serve daemon
// uses this to bound each tenant's off-heap footprint.
func WithPageQuota(pages int64) Option {
	return func(o *runOptions) { o.pageQuota = pages }
}

// WithTiering spills cold off-heap pages to a spill file under dir once
// more than highPages pages are resident in DRAM, evicting down to
// lowPages (half of highPages when lowPages is outside 1..highPages). The
// file is read and written with plain pread/pwrite on every
// platform: page bodies are copied under the tier lock either way, so a
// mapping measured no faster (docs/OFFHEAP.md). Spilled pages promote
// back transparently on access, and iteration-end bulk release drops them
// without reading them back. Program output is bit-identical with tiering
// on or off (the tier-equivalence battery enforces it); only residency
// changes. Applies to transformed programs only — untransformed programs
// have no off-heap pages — and composes with WithPageQuota, which then
// caps resident pages rather than live pages: the run spills before it
// fails. Pass highPages <= 0 to disable.
func WithTiering(dir string, highPages, lowPages int) Option {
	return func(o *runOptions) {
		o.tierDir = dir
		o.tierHigh = highPages
		o.tierLow = lowPages
	}
}

// WithFaultAttempt re-derives the fault seed for automatic re-run attempt
// n (n >= 2): a transiently failed job that a daemon retries must not
// deterministically replay the exact same injected failures, while the
// derivation stays a pure function of (spec, n) so a crash-recovery
// replay — which restarts every job at attempt 1 — still reproduces the
// original run bit for bit. Values below 2 are no-ops (attempt 1 runs
// the spec's own seed).
func WithFaultAttempt(n int) Option {
	return func(o *runOptions) { o.faultAttempt = n }
}

// WithFaults enables deterministic fault injection from a spec string like
// "alloc=0.001,page=0.001,seed=7" (see docs/ROBUSTNESS.md for the grammar;
// an empty spec disables injection). Injected heap and page-store failures
// surface exactly like real memory exhaustion — as OutOfMemoryError /
// heap.ErrOutOfMemory — and the counts absorbed appear in
// RunStats.Faults. A malformed spec fails the Run call.
func WithFaults(spec string) Option {
	return func(o *runOptions) {
		cfg, err := faults.Parse(spec)
		if err != nil {
			o.faultsErr = fmt.Errorf("faults spec: %w", err)
			return
		}
		o.faults = &cfg
	}
}
