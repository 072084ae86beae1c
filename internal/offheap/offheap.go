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
	"cmp"
	"errors"
	"fmt"
	"slices"
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
	// size is the record size an oversize page was acquired for, which
	// the store counts as in use; its body is rounded up to whole pages,
	// so it may be longer. PageSize for a standard page.
	size int
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

// Runtime owns all pages and the free-page pool.
type Runtime struct {
	mu   sync.Mutex
	free []*page // recycled pages awaiting reuse
	// big holds the oversize pages released at an iteration end, each with
	// its body and table slot, ascending by body length: an oversize
	// acquire takes the shortest that fits. Their bodies total bigBytes,
	// which never exceeds bigHW, the most oversize body bytes this store
	// has had live at once (bigLive now); a body past that goes back to
	// the region source.
	big                      []*page
	bigBytes, bigLive, bigHW int
	// live holds the managers not yet released; Stats folds their record
	// counts in.
	live map[*PageManager]struct{}

	_ [cacheLinePair]byte
	// table is the page table, grown by append under mu and published
	// whole, so record accesses resolve page references without locking
	// (getPage says why an append is safe). Every record access of every
	// thread loads it, while mu, free and live above are written on each
	// page acquire and nextIter below on each iteration start, so it keeps
	// a cache-line pair to itself on both sides (vm.Thread's reason again).
	table atomic.Pointer[[]*page]
	_     [cacheLinePair]byte

	// nextIter supplies this store's iteration IDs, dense from 0.
	nextIter atomic.Int64

	// Observability instruments (internal/obs). They are the store's only
	// books (quota, watermarks, Stats and Reset read them; Reset rewinds
	// them by rebinding to the next job's registry), so a registry serves
	// one store at a time.
	obs              *obs.Registry
	cPageAcquires    *obs.Counter
	cPageReleases    *obs.Counter
	cPageRecycles    *obs.Counter
	cPagesCreated    *obs.Counter
	cOversize        *obs.Counter
	cManagers        *obs.Counter
	cRecordsReleased *obs.Counter // records of released managers only: see Stats
	gPagesLive       *obs.Gauge
	gBytesInUse      *obs.Gauge // DRAM bytes of live pages; its high water is PeakBytes

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

	// mem holds every page body in DRAM, live or free: standard ones and
	// oversize ones rounded up to whole pages.
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

// NewRuntime creates an empty native store publishing its instruments to
// reg (a fresh private registry when nil).
func NewRuntime(reg *obs.Registry) *Runtime {
	rt := &Runtime{
		live: make(map[*PageManager]struct{}),
		mem:  region.NewSet(),
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
	rt.cPagesCreated = reg.Counter(obs.CtrPagesCreated)
	rt.cOversize = reg.Counter(obs.CtrOversize)
	rt.cManagers = reg.Counter(obs.CtrManagers)
	rt.cRecordsReleased = reg.Counter(obs.CtrRecordsReleased)
	rt.gPagesLive = reg.Gauge(obs.GaugePagesLive)
	rt.gBytesInUse = reg.Gauge(obs.GaugeBytesInUse)
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

// checkQuota admits a page whose body spans pages whole pages, or returns
// ErrPageQuota: an oversize body is charged every page it maps, so a
// request larger than the quota fails before any of it is mapped (the live
// count then goes up by one page, as for any acquire). With a disk tier the
// quota caps DRAM-resident pages, and a spill (pk parks the caller for it)
// runs first — spill is the first rung of the degradation ladder, before
// budget-halving, before OME.
func (rt *Runtime) checkQuota(pk Parker, pages int64) error {
	q := rt.quota.Load()
	if q <= 0 {
		return nil
	}
	if t := rt.tier; t != nil {
		if t.gResident.Load()+pages > q {
			rt.spill(pk, q-pages, nil)
		}
		if t.gResident.Load()+pages > q {
			return fmt.Errorf("%w (quota %d resident pages)", ErrPageQuota, q)
		}
		return nil
	}
	if rt.gPagesLive.Load()+pages > q {
		return fmt.Errorf("%w (quota %d pages)", ErrPageQuota, q)
	}
	return nil
}

// Reset returns the store to its post-New state for reuse by another job,
// keeping the free pages warm: free pages, standard and oversize, are
// re-indexed into a fresh page table so the table does not grow without
// bound across jobs, and the instruments rebind to reg (the next job's
// registry, whose fresh instruments are how every count rewinds). It fails
// if any page is still live — a job that leaked one poisons the store, and
// the daemon rebuilds instead of reusing it.
func (rt *Runtime) Reset(reg *obs.Registry, inj *faults.Injector) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if live := rt.gPagesLive.Load(); live != 0 {
		return fmt.Errorf("offheap: %w with %d live page(s)", faults.ErrNotReusable, live)
	}
	next := slices.Concat(rt.free, rt.big)
	for i, p := range next {
		p.idx = i
		p.released.Store(false)
		p.candIdx = -1
	}
	rt.table.Store(&next)
	rt.live = make(map[*PageManager]struct{})
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

// Stats returns a snapshot of the counters, read off the instruments.
// Every field but Records may be sampled at any time. Records is the one
// count kept outside the registry: a manager counts its records in a plain
// field and adds them to the records_released counter when it is released,
// so that counter reads low while managers are live, and Stats folds in
// the unsynchronised counts of the managers still live. Call Stats only
// while no thread is allocating (every caller reports after its run has
// finished); a mid-run observer reads the registry instead.
func (rt *Runtime) Stats() Stats {
	rt.mu.Lock()
	records := rt.cRecordsReleased.Load()
	for m := range rt.live {
		records += m.records
	}
	rt.mu.Unlock()
	s := Stats{
		PagesCreated:  rt.cPagesCreated.Load(),
		PagesLive:     rt.gPagesLive.Load(),
		PagesLiveHW:   rt.gPagesLive.HighWater(),
		PagesRecycled: rt.cPageRecycles.Load(),
		Oversize:      rt.cOversize.Load(),
		Records:       records,
		BytesInUse:    rt.gBytesInUse.Load(),
		PeakBytes:     rt.gBytesInUse.HighWater(),
		Managers:      rt.cManagers.Load(),
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
// acquire path: every page a manager owns came through here. A standard
// page comes from the free pool; an oversize one (larger than PageSize)
// reuses the shortest released oversize page whose body fits, and a new
// one's body is rounded up to whole pages. The faults.PageAcquire point is
// evaluated first: a firing point fails the acquire with ErrPageExhausted,
// modeling native allocation failure.
func (rt *Runtime) getPage(size int, pk Parker) (*page, error) {
	if rt.inj != nil && rt.inj.Fire(faults.PageAcquire) {
		n := rt.cFaultsInj.Load() + 1
		rt.cFaultsInj.Inc()
		rt.obs.Emit(obs.EvFault, string(faults.PageAcquire), n, 0, 0)
		return nil, fmt.Errorf("%w (%w)", ErrPageExhausted, faults.ErrInjected)
	}
	size = max(size, PageSize)
	body := (size + PageSize - 1) &^ (PageSize - 1)
	if err := rt.checkQuota(pk, int64(body/PageSize)); err != nil {
		return nil, err
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.cPageAcquires.Inc()
	rt.gPagesLive.Add(1)
	rt.gBytesInUse.Add(int64(size))
	var p *page
	if size == PageSize {
		if n := len(rt.free); n > 0 {
			p = rt.free[n-1]
			rt.free = rt.free[:n-1]
		}
	} else {
		rt.cOversize.Inc()
		if i, _ := slices.BinarySearchFunc(rt.big, body, byBodyLen); i < len(rt.big) {
			p = rt.big[i]
			rt.big = slices.Delete(rt.big, i, i+1)
			body = len(p.bytes())
			rt.bigBytes -= body
		}
		rt.bigLive += body
		rt.bigHW = max(rt.bigHW, rt.bigLive)
	}
	if p != nil {
		p.size = size
		rt.cPageRecycles.Inc()
		rt.tierAcquire(p)
		return p, nil
	}
	// The new slot goes into the table's spare capacity when it has some,
	// so a store pays for its table once, not once per page: a reader
	// indexes only below the length it loaded, so the append changes
	// nothing it can see, and publishing the longer header shows it p.
	old := *rt.table.Load()
	p = &page{idx: len(old), size: size, candIdx: -1}
	buf := rt.mem.Get(body)
	p.buf.Store(&buf)
	next := append(old, p)
	rt.table.Store(&next)
	rt.cPagesCreated.Inc()
	rt.tierAcquire(p)
	return p, nil
}

// releasePage takes a page out of the live set. A standard page goes back
// to the free pool. An oversize page released at its iteration's end
// (reuse) goes to the oversize pool, body and table slot, unless its body
// would take that pool past bigHW; otherwise, and always when ReleaseOversize
// frees it early, the body goes back to the region source at once and the
// slot stays dead. An early-released page is never reused: its manager
// still lists it and releases it again at the iteration's end, which must
// then be a no-op rather than the release of another manager's page.
// Idempotent for that reason.
func (rt *Runtime) releasePage(p *page, reuse bool) {
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
	body := p.bytes() // nil for a spilled page: its DRAM was freed at spill
	if p.size == PageSize {
		rt.gBytesInUse.Add(-int64(len(body)))
		if body != nil {
			p.released.Store(false) // recyclable pages are reborn via the pool
			rt.free = append(rt.free, p)
		}
		return
	}
	rt.gBytesInUse.Add(-int64(p.size))
	rt.bigLive -= len(body)
	if reuse && rt.bigBytes+len(body) <= rt.bigHW {
		i, _ := slices.BinarySearchFunc(rt.big, len(body), byBodyLen)
		p.released.Store(false)
		rt.big = slices.Insert(rt.big, i, p)
		rt.bigBytes += len(body)
		return
	}
	p.buf.Store(nil)
	rt.mem.Put(body)
}

// byBodyLen orders the oversize pool by body length.
func byBodyLen(p *page, n int) int { return cmp.Compare(len(p.bytes()), n) }

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
	rt.releasePage(p, false)
	return true
}
