package heap

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Stop-the-world coordination. Mutator threads are either "running"
// (executing IR and touching the heap) or "external" (parked at a
// safepoint, or executing framework Go code that only reaches the heap
// through handles). A collection — or any other stop of the world — may
// proceed only when every registered thread except the one stopping it is
// external.

type safepointState struct {
	mu      sync.Mutex
	cond    *sync.Cond
	gcMu    sync.Mutex // ownership of a stopped world (a collection or a spill)
	wanted  atomic.Bool
	running int
	threads map[*ThreadCtx]struct{}
}

func (sp *safepointState) init() {
	sp.cond = sync.NewCond(&sp.mu)
	sp.threads = make(map[*ThreadCtx]struct{})
}

// ThreadCtx is the per-VM-thread heap context: its TLAB and safepoint
// state. Every thread that executes IR must hold one and call Safepoint
// regularly (the interpreter does so on calls and loop back-edges).
//
// The context also batches allocation accounting thread-locally, so the
// TLAB bump-pointer path touches no shared cache line: counters flush to
// the heap's shared atomics when the thread crosses the boundary
// (BeginExternal). The write barrier keeps nothing here; it sets a bit in
// the heap's remembered-slot bitmap.
type ThreadCtx struct {
	hp      *Heap
	tlab    TLAB
	running bool

	// Allocation accounting (flushed by flushAllocStats).
	allocCounts []int64 // same indexing as hp.allocCounts
	histCounts  []int64 // hp.hAllocSize buckets
	histSum     int64
	histMin     int64
	histMax     int64
}

// RegisterThread creates a thread context. The context starts external;
// call EndExternal (or run IR through the VM, which does it) to start
// mutating.
func (hp *Heap) RegisterThread() *ThreadCtx {
	tc := &ThreadCtx{
		hp:          hp,
		allocCounts: make([]int64, len(hp.allocCounts)),
		histCounts:  make([]int64, hp.hAllocSize.NumBuckets()),
		histMin:     math.MaxInt64,
		histMax:     math.MinInt64,
	}
	sp := &hp.sp
	sp.mu.Lock()
	sp.threads[tc] = struct{}{}
	sp.mu.Unlock()
	return tc
}

// UnregisterThread removes the context, leaving mutator state first if the
// thread was still running. It waits out a stop of the world in progress
// (gcMu), so the thread list shrinks only between stops: once it returns,
// no collection or spill that began with this thread registered is still
// running.
func (hp *Heap) UnregisterThread(tc *ThreadCtx) {
	tc.BeginExternal()
	sp := &hp.sp
	sp.gcMu.Lock()
	sp.mu.Lock()
	delete(sp.threads, tc)
	sp.mu.Unlock()
	sp.gcMu.Unlock()
}

// BeginExternal marks the thread as not mutating (framework code, blocking
// calls). The thread must not touch heap memory until EndExternal.
// Thread-local allocation counters flush here, so shared Stats lag a
// running mutator by at most one boundary crossing.
func (tc *ThreadCtx) BeginExternal() {
	tc.flushAllocStats()
	sp := &tc.hp.sp
	sp.mu.Lock()
	if tc.running {
		tc.running = false
		sp.running--
		sp.cond.Broadcast()
	}
	sp.mu.Unlock()
}

// EndExternal re-enters mutator state, blocking while a collection is
// pending or in progress. Time spent blocked is recorded in the
// safepoint-wait histogram (the wait is measured only when a collection
// is actually pending, keeping the common path free of clock reads).
func (tc *ThreadCtx) EndExternal() {
	sp := &tc.hp.sp
	sp.mu.Lock()
	if sp.wanted.Load() {
		start := time.Now()
		for sp.wanted.Load() {
			sp.cond.Wait()
		}
		tc.hp.hSafepointWait.Observe(time.Since(start).Nanoseconds())
	}
	if !tc.running {
		tc.running = true
		sp.running++
	}
	sp.mu.Unlock()
}

// FlushStats publishes the thread's batched allocation counters to the
// heap's shared statistics immediately, without leaving mutator state.
// Callers that inspect Stats or per-class counts while a thread is still
// running must flush that thread first; boundary crossings (BeginExternal,
// UnregisterThread) flush automatically.
func (tc *ThreadCtx) FlushStats() {
	tc.flushAllocStats()
}

// Safepoint parks the thread if a collection has been requested. The check
// is a single atomic load when no collection is pending, and the parking
// lives in its own function so that the check inlines into the
// interpreter's back-edge poll.
func (tc *ThreadCtx) Safepoint() {
	if tc.hp.sp.wanted.Load() {
		tc.park()
	}
}

func (tc *ThreadCtx) park() {
	tc.BeginExternal()
	tc.EndExternal()
}

// StopTheWorld runs f with every other registered thread parked: the
// calling thread leaves the running state, waits out any stop already in
// progress, asks the others to park at their next safepoint, runs f once
// none is running, and resumes them all, itself included. Collections and
// the page store's disk spills (offheap.Parker) both run under it, so one
// protocol guards every move of data a mutator may hold.
func (hp *Heap) StopTheWorld(tc *ThreadCtx, f func()) {
	sp := &hp.sp
	tc.BeginExternal()
	sp.gcMu.Lock()
	sp.wanted.Store(true)
	// Wait for every other thread to leave the running state.
	sp.mu.Lock()
	for sp.running > 0 {
		sp.cond.Wait()
	}
	sp.mu.Unlock()

	f()

	sp.wanted.Store(false)
	sp.mu.Lock()
	sp.cond.Broadcast()
	sp.mu.Unlock()
	sp.gcMu.Unlock()
	tc.EndExternal()
}

// Collect runs a collection (minor, or full when full is true) with the
// calling thread as the collector. It returns ErrOutOfMemory if a full
// collection cannot fit the live set.
func (hp *Heap) Collect(tc *ThreadCtx, full bool) error {
	var err error
	hp.StopTheWorld(tc, func() { err = hp.collectSTW(full) })
	return err
}

// collectFor runs the collection an allocation that found no room asks
// for, unless a collection has ended since the allocation read seen off
// the pause histogram: while this thread waited for the stop, another
// thread's collection made the room the allocation retries against, and a
// second one would only sweep the nursery it just emptied. It reports
// whether it collected.
func (hp *Heap) collectFor(tc *ThreadCtx, full bool, seen int64) (collected bool, err error) {
	hp.StopTheWorld(tc, func() {
		if hp.hPause.Count() == seen {
			collected, err = true, hp.collectSTW(full)
		}
	})
	return collected, err
}

// invalidateTLABs resets every thread's TLAB after the nursery has been
// recycled. Called with the world stopped.
func (hp *Heap) invalidateTLABs() {
	hp.sp.eachThread(func(tc *ThreadCtx) { tc.tlab = TLAB{} })
}

// eachThread calls f on every registered thread context, under mu: a
// stopped world keeps mutators off the heap, not off the thread list — an
// external thread may register or unregister during a collection.
func (sp *safepointState) eachThread(f func(tc *ThreadCtx)) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	for tc := range sp.threads {
		f(tc)
	}
}
