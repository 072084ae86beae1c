// Package offheap implements the FACADE runtime's native-memory data store
// (§2.1, §3.6 of the paper): fixed-size 32 KB pages carved into size
// classes, an "oversize" class for records larger than a page, and a tree
// of page managers keyed by ⟨iterationID, thread⟩ that supports
// iteration-based bulk reclamation with nested sub-iterations.
//
// Data records stored here are never seen by the managed heap's garbage
// collector; that is the entire point. A record is addressed by a 64-bit
// page reference (PageRef) and laid out exactly like the body of the
// corresponding heap object, preceded by a compact header (Figure 1):
//
//	scalar record: [type ID u16][lock ID u16]             = 4-byte header
//	array record:  [type ID u16][lock ID u16][length u32] = 8-byte header
//
// versus the 12/16-byte headers of managed objects — the space saving the
// paper reports comes directly from this difference plus the removal of GC
// metadata.
//
// As with real native memory, a reference into a page that has been
// released by its iteration dangles: it reads whatever the recycled page
// now contains. The paper's correctness argument (§3.7) excludes this by
// the user's iteration specification, and so do we.
package offheap

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/region"
)

// Typed allocation errors. These propagate through the VM boundary like
// heap.ErrOutOfMemory does, so both injected faults and programmer errors
// are recoverable and testable instead of process-killing panics.
var (
	// ErrReleasedManager is returned for an allocation from a page
	// manager whose iteration has already been released (§3.6: a record
	// must not outlive its iteration).
	ErrReleasedManager = errors.New("offheap: allocation from a released page manager")
	// ErrTooManyArrayTypes is returned when a program names more array
	// element types than a record's type word can index (MaxArrayTypes).
	ErrTooManyArrayTypes = errors.New("offheap: too many distinct array element types")
	// ErrPageExhausted is returned when a page acquire fails — via
	// injected faults or an exceeded page quota, standing in for native
	// allocation failure.
	ErrPageExhausted = errors.New("offheap: page store exhausted")
	// ErrPageQuota wraps ErrPageExhausted for acquires denied by a tenant
	// page quota (SetPageQuota), so quota overruns ride the same OOM
	// degradation rails while staying distinguishable with errors.Is.
	ErrPageQuota = fmt.Errorf("%w: page quota exceeded", ErrPageExhausted)
)

// PageRef is a reference to a record in native memory: the page index+1 in
// the high 32 bits and the byte offset within the page in the low 32 bits.
// 0 is null.
type PageRef = int64

// PageSize is the fixed page size (32 KB, "a common practice in the
// database design").
const PageSize = 32 << 10

// Record header layout.
const (
	// ScalarHeader and ArrayHeader are the record header sizes.
	ScalarHeader = 4
	ArrayHeader  = 8

	arrayTypeBit uint16 = 1 << 14

	// MaxArrayTypes bounds the array type indices a record's type word
	// holds, in the 14 bits below arrayTypeBit.
	MaxArrayTypes = int(arrayTypeBit)
)

// MakeRef builds a PageRef from a page index and offset.
func MakeRef(pageIdx int, off int) PageRef {
	return PageRef(int64(pageIdx+1)<<32 | int64(off))
}

func splitRef(r PageRef) (pageIdx, off int) {
	return int(r>>32) - 1, int(r & 0xffffffff)
}

// page is one native memory block.
type page struct {
	// buf is the page body, nil while it lives in the spill file. A spill
	// clears it with the world stopped; a promotion publishes a whole new
	// body while other threads run, so a reader sees nil or the full page.
	buf atomic.Pointer[[]byte]
	idx int // index in the runtime page table
	// released guards against double release: oversize pages can be freed
	// early (§3.6) and would otherwise be freed again at iteration end.
	released atomic.Bool

	// Disk-tier state; only touched when the runtime has a tier attached
	// (see tier.go for the locking protocol).
	pinned   atomic.Int32 // the acquire pin, kept while the page is a manager's bump page
	accessed atomic.Bool  // second-chance bit for the clock sweep
	tierMu   sync.Mutex   // serializes spill/promote/release transitions
	spilled  bool         // under tierMu: the body lives in the spill file
	slot     int          // under tierMu: spill-file slot while spilled
	candIdx  int          // under tier.mu: index in the candidate list, -1 if absent
}

// bytes returns the page's body, nil while it is spilled.
func (p *page) bytes() []byte {
	if b := p.buf.Load(); b != nil {
		return *b
	}
	return nil
}

// Runtime owns all pages, the free-page pool and the shared lock pool.
type Runtime struct {
	mu   sync.Mutex
	free []*page // recycled pages awaiting reuse
	// live holds the managers not yet released; their record counts are
	// folded into Stats.
	live map[*PageManager]struct{}

	_ [cacheLinePair]byte
	// table is a copy-on-write page table so record accesses resolve page
	// references without locking. Every record access of every thread
	// loads it, while mu, free and live above are written on each page
	// acquire and nextIter below on each iteration start, so it keeps a
	// cache-line pair to itself on both sides (vm.Thread's reason again).
	table atomic.Pointer[[]*page]
	_     [cacheLinePair]byte

	// nextIter supplies this store's iteration IDs, dense from 0.
	nextIter atomic.Int64

	Locks *LockPool

	// stats holds the counts that have no obs instrument; live, recycled,
	// resident and spilled pages are kept by the instruments alone.
	stats struct {
		pagesCreated atomic.Int64
		oversize     atomic.Int64
		records      atomic.Int64
		bytesInUse   atomic.Int64
		peakBytes    atomic.Int64
		managers     atomic.Int64
	}

	// Observability instruments (internal/obs). The page instruments are
	// the store's own books (quota, watermarks, Stats and Reset read them),
	// so a registry serves one store at a time.
	obs           *obs.Registry
	cPageAcquires *obs.Counter
	cPageReleases *obs.Counter
	cPageRecycles *obs.Counter
	gPagesLive    *obs.Gauge

	// Fault injection: nil when disabled.
	inj        *faults.Injector
	cFaultsInj *obs.Counter

	// quota caps simultaneously live pages (0 = unlimited); acquires past
	// the cap fail with ErrPageQuota. This is the per-tenant offheap
	// budget hook the daemon's admission control leans on. With a disk
	// tier attached the quota caps DRAM-resident pages instead, and an
	// acquire at the cap tries to spill before failing.
	quota atomic.Int64

	// tier is the disk tier, nil unless EnableTiering attached one.
	// Set before the store is shared between threads, cleared by Reset.
	tier *tier

	// mem holds the standard page bodies in DRAM, live or free; oversize
	// bodies are Go memory.
	mem *region.Set
}

// Stats is a snapshot of the native store counters. It is
// facade.OffheapStats: the JSON tags are part of the facade.run/v1 and
// facade.job/v1 schemas.
type Stats struct {
	PagesCreated  int64 `json:"pages_created"`  // distinct page allocations from the OS (Go) side
	PagesLive     int64 `json:"pages_live"`     // pages currently owned by some manager
	PagesLiveHW   int64 `json:"pages_live_hw"`  // high-water mark of simultaneously live pages
	PagesRecycled int64 `json:"pages_recycled"` // page reuses through the free pool
	Oversize      int64 `json:"oversize"`       // oversize allocations (> PageSize records)
	Records       int64 `json:"records"`        // records ever allocated
	BytesInUse    int64 `json:"bytes_in_use"`   // DRAM bytes held by live pages (spilled bodies excluded)
	PeakBytes     int64 `json:"peak_bytes"`
	Managers      int64 `json:"managers"` // page managers ever created

	// Disk tier (all zero, and omitted from the encoding, when no tier is
	// attached).
	PagesSpilled  int64 `json:"pages_spilled,omitempty"`  // evictions DRAM -> disk
	PagesPromoted int64 `json:"pages_promoted,omitempty"` // promotions disk -> DRAM
	PagesResident int64 `json:"pages_resident,omitempty"` // live pages currently in DRAM
	PagesDisk     int64 `json:"pages_disk,omitempty"`     // live pages currently spilled
	SpillBytes    int64 `json:"spill_bytes,omitempty"`
	PromoteBytes  int64 `json:"promote_bytes,omitempty"`
}

// NewRuntime creates an empty native store with a private observability
// registry.
func NewRuntime() *Runtime { return NewRuntimeWith(nil) }

// NewRuntimeWith creates an empty native store publishing its instruments
// to reg (a fresh private registry when nil).
func NewRuntimeWith(reg *obs.Registry) *Runtime {
	rt := &Runtime{
		live:  make(map[*PageManager]struct{}),
		Locks: NewLockPool(defaultLockPoolSize),
		mem:   region.NewSet(),
	}
	rt.bindInstruments(reg, nil)
	empty := make([]*page, 0)
	rt.table.Store(&empty)
	return rt
}

// bindInstruments points the store's page instruments at reg (a fresh
// private registry when nil) and installs the fault injector. Called at
// construction and again by Reset so a reused store reports into the new
// job's registry.
func (rt *Runtime) bindInstruments(reg *obs.Registry, inj *faults.Injector) {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	rt.obs = reg
	rt.cPageAcquires = reg.Counter(obs.CtrPageAcquires)
	rt.cPageReleases = reg.Counter(obs.CtrPageReleases)
	rt.cPageRecycles = reg.Counter(obs.CtrPageRecycles)
	rt.gPagesLive = reg.Gauge(obs.GaugePagesLive)
	rt.cFaultsInj = nil
	rt.SetFaultInjector(inj)
}

// Obs returns the store's observability registry.
func (rt *Runtime) Obs() *obs.Registry { return rt.obs }

// SetFaultInjector installs a fault injector consulted on every page
// acquire (nil disables injection). Call before the store is shared
// between threads.
func (rt *Runtime) SetFaultInjector(inj *faults.Injector) {
	rt.inj = inj
	if inj != nil && rt.cFaultsInj == nil {
		rt.cFaultsInj = rt.obs.Counter(obs.CtrFaultPageAcquire)
	}
}

// SetPageQuota caps the number of simultaneously live pages (0 removes
// the cap). An acquire that would exceed the quota fails with
// ErrPageQuota, which wraps ErrPageExhausted and therefore takes the same
// recovery path as native allocation failure. Deterministic for a given
// program: the cap is evaluated against the store's live-page gauge, which
// a single-job VM drives deterministically.
func (rt *Runtime) SetPageQuota(pages int64) { rt.quota.Store(pages) }

// PageQuota returns the current live-page cap (0 = unlimited).
func (rt *Runtime) PageQuota() int64 { return rt.quota.Load() }

// checkQuota admits one more live page or returns ErrPageQuota. With a
// disk tier the quota caps DRAM-resident pages, and a spill (pk parks the
// caller for it) runs first — spill is the first rung of the degradation
// ladder, before budget-halving, before OME.
func (rt *Runtime) checkQuota(pk Parker) error {
	q := rt.quota.Load()
	if q <= 0 {
		return nil
	}
	if t := rt.tier; t != nil {
		if t.gResident.Load() >= q {
			rt.spill(pk, q-1, nil)
		}
		if t.gResident.Load() >= q {
			return fmt.Errorf("%w (quota %d resident pages)", ErrPageQuota, q)
		}
		return nil
	}
	if rt.gPagesLive.Load() >= q {
		return fmt.Errorf("%w (quota %d pages)", ErrPageQuota, q)
	}
	return nil
}

// Reset returns the store to its post-New state for reuse by another job,
// keeping the recycled-page free pool and the built pool locks warm: free
// pages are re-indexed into a fresh page table so the table does not grow
// without bound across jobs, counters rewind to zero, and the instruments
// rebind to reg (the next job's registry, whose fresh instruments are how
// the page counts rewind). It fails if any page or pool lock is still live
// — a job that leaked either poisons the store, and the daemon rebuilds
// instead of reusing it.
func (rt *Runtime) Reset(reg *obs.Registry, inj *faults.Injector) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if live := rt.gPagesLive.Load(); live != 0 {
		return fmt.Errorf("offheap: %w with %d live page(s)", faults.ErrNotReusable, live)
	}
	if err := rt.Locks.rewind(); err != nil {
		return err
	}
	next := make([]*page, len(rt.free))
	for i, p := range rt.free {
		p.idx = i
		p.released.Store(false)
		p.candIdx = -1
		next[i] = p
	}
	rt.table.Store(&next)
	rt.stats.pagesCreated.Store(0)
	rt.stats.oversize.Store(0)
	rt.stats.records.Store(0)
	rt.live = make(map[*PageManager]struct{})
	rt.stats.bytesInUse.Store(0)
	rt.stats.peakBytes.Store(0)
	rt.stats.managers.Store(0)
	rt.nextIter.Store(0)
	rt.quota.Store(0) // a reused store must not inherit the previous job's cap
	rt.bindInstruments(reg, inj)
	// Tear down the disk tier: a pooled warm VM must not leak spill files
	// (or tier counters) across tenant jobs.
	if err := rt.CloseTier(); err != nil {
		return fmt.Errorf("offheap: %w: %w", faults.ErrNotReusable, err)
	}
	return nil
}

// Stats returns a snapshot of the counters. Every field but Records is
// atomic and may be sampled at any time; Records folds in the unsynchronised
// per-manager counts of managers still live, so call Stats only while no
// thread is allocating (every caller reports after its run has finished).
// A mid-run observer reads the page counters and gauges in the obs
// registry instead.
func (rt *Runtime) Stats() Stats {
	rt.mu.Lock()
	records := rt.stats.records.Load()
	for m := range rt.live {
		records += m.records
	}
	rt.mu.Unlock()
	s := Stats{
		PagesCreated:  rt.stats.pagesCreated.Load(),
		PagesLive:     rt.gPagesLive.Load(),
		PagesLiveHW:   rt.gPagesLive.HighWater(),
		PagesRecycled: rt.cPageRecycles.Load(),
		Oversize:      rt.stats.oversize.Load(),
		Records:       records,
		BytesInUse:    rt.stats.bytesInUse.Load(),
		PeakBytes:     rt.stats.peakBytes.Load(),
		Managers:      rt.stats.managers.Load(),
	}
	if t := rt.tier; t != nil {
		s.PagesSpilled = t.cSpilled.Load()
		s.PagesPromoted = t.cPromoted.Load()
		s.PagesResident = t.gResident.Load()
		s.PagesDisk = t.gDisk.Load()
		s.SpillBytes = t.cSpillBytes.Load()
		s.PromoteBytes = t.cPromoteBytes.Load()
	}
	return s
}

// getPage allocates or recycles a page of at least size bytes — the one
// acquire path: every page a manager owns came through here. Pages larger
// than PageSize ("oversize") are never recycled through the pool. The
// faults.PageAcquire point is evaluated first: a firing point fails the
// acquire with ErrPageExhausted, modeling native allocation failure.
func (rt *Runtime) getPage(size int, pk Parker) (*page, error) {
	if rt.inj != nil && rt.inj.Fire(faults.PageAcquire) {
		n := rt.cFaultsInj.Load() + 1
		rt.cFaultsInj.Inc()
		rt.obs.Emit(obs.EvFault, string(faults.PageAcquire), n, 0, 0)
		return nil, fmt.Errorf("%w (%w)", ErrPageExhausted, faults.ErrInjected)
	}
	if err := rt.checkQuota(pk); err != nil {
		return nil, err
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.cPageAcquires.Inc()
	rt.gPagesLive.Add(1)
	if size <= PageSize {
		size = PageSize
		if n := len(rt.free); n > 0 {
			p := rt.free[n-1]
			rt.free = rt.free[:n-1]
			rt.cPageRecycles.Inc()
			rt.addBytes(PageSize)
			rt.tierAcquire(p)
			return p, nil
		}
	} else {
		rt.stats.oversize.Add(1)
	}
	old := *rt.table.Load()
	p := &page{idx: len(old), candIdx: -1}
	var buf []byte
	if size == PageSize {
		buf = rt.mem.Get(PageSize)
	} else {
		buf = make([]byte, size)
	}
	p.buf.Store(&buf)
	next := make([]*page, len(old)+1)
	copy(next, old)
	next[len(old)] = p
	rt.table.Store(&next)
	rt.stats.pagesCreated.Add(1)
	rt.addBytes(int64(size))
	rt.tierAcquire(p)
	return p, nil
}

// releasePage returns a page to the free pool, or drops an oversize
// page's body, which Go then reclaims like free() of a large malloc block.
// Idempotent: a page freed early by ReleaseOversize is skipped when its
// manager releases the iteration.
func (rt *Runtime) releasePage(p *page) {
	if p.released.Swap(true) {
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	// Settle tier state first: this serializes behind any in-flight spill
	// and frees a spilled page's disk slot without reading it back. After
	// it returns no evictor can touch p, so the buf reads below are safe.
	rt.tierRelease(p)
	rt.cPageReleases.Inc()
	rt.gPagesLive.Add(-1)
	n := len(p.bytes())
	rt.addBytes(-int64(n)) // 0 for a spilled page: its DRAM was freed at spill
	if n == PageSize {
		p.released.Store(false) // recyclable pages are reborn via the pool
		rt.free = append(rt.free, p)
	} else {
		p.buf.Store(nil)
	}
}

// ReleaseOversize frees the oversize page backing ref before its iteration
// ends — §3.6's optimization for large arrays dropped by data-structure
// resizes. Records on regular pages are untouched (they share pages).
// It reports whether a page was released.
func (rt *Runtime) ReleaseOversize(ref PageRef) bool {
	if ref == 0 {
		return false
	}
	idx, off := splitRef(ref)
	if off != 0 {
		return false // not the first record of a page => shared page
	}
	p := (*rt.table.Load())[idx]
	if len(p.bytes()) <= PageSize {
		return false
	}
	rt.releasePage(p)
	return true
}

func (rt *Runtime) addBytes(d int64) {
	v := rt.stats.bytesInUse.Add(d)
	for {
		cur := rt.stats.peakBytes.Load()
		if v <= cur || rt.stats.peakBytes.CompareAndSwap(cur, v) {
			return
		}
	}
}
