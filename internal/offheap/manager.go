package offheap

import (
	"fmt"
	"sync"

	"repro/internal/obs"
)

// Size classes for record allocation (§3.6): each class serves a range of
// record sizes from its own pages, "similarly to what a high-performance
// allocator would do". Records larger than half a page get an empty page
// to themselves; records larger than a page go to the oversize class.
var sizeClasses = [...]int{64, 256, 1024, 4096, PageSize / 2}

const numClasses = len(sizeClasses)

func classFor(size int) int {
	for i, c := range sizeClasses {
		if size <= c {
			return i
		}
	}
	return -1 // dedicated or oversize page
}

// pageCacheCap bounds the per-scope page cache. Iterative workloads churn
// a handful of pages per iteration per thread; 32 pages (1 MB) covers that
// while keeping the worst-case memory parked in caches negligible.
const pageCacheCap = 32

// pageCache is a small per-IterScope stash of recycled PageSize pages.
// When an iteration ends, its manager parks recyclable pages here instead
// of pushing them through the runtime's global pool; the next iteration in
// the same scope pops them back without touching rt.mu. The mutex exists
// only because ReleaseAll can run on a different thread than the scope's
// owner (a parent iteration releasing a spawned thread's managers); it is
// scope-local, so it is uncontended in steady state.
type pageCache struct {
	mu      sync.Mutex
	entries []cachedPage
}

// cachedPage remembers which iteration released the page. IterIDs are
// globally unique and a manager never allocates after release, so a cached
// page can only be served to a *different* (later) iteration — the
// invariant the property test in offheap_test.go checks.
type cachedPage struct {
	p       *page
	srcIter int
}

// pop removes and returns the most recently cached page.
func (c *pageCache) pop() (cachedPage, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.entries)
	if n == 0 {
		return cachedPage{}, false
	}
	e := c.entries[n-1]
	c.entries[n-1] = cachedPage{}
	c.entries = c.entries[:n-1]
	return e, true
}

// put parks a page in the cache; reports false when the cache is full.
func (c *pageCache) put(p *page, srcIter int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) >= pageCacheCap {
		return false
	}
	c.entries = append(c.entries, cachedPage{p: p, srcIter: srcIter})
	return true
}

// PageManager allocates records for one ⟨iterationID, thread⟩ pair and
// owns the pages it allocates from. Managers form the runtime tree of
// §3.6: a sub-iteration's manager is a child of the enclosing iteration's
// manager, and a new thread's default manager is a child of the manager
// current in the creating thread. Releasing a manager releases the whole
// subtree's pages at once.
//
// Alloc is single-threaded by construction (a manager belongs to one
// thread); the children list is the only shared state.
type PageManager struct {
	rt     *Runtime
	parent *PageManager

	childMu  sync.Mutex
	children []*PageManager

	cur      [numClasses]*page
	pages    []*page
	hwPages  int // most pages this manager has owned at once
	released bool
	// records counts this manager's allocations without touching shared
	// state on the allocation path; ReleaseAll flushes it into the runtime
	// and Stats folds in the managers still live, so the total stays exact.
	// Deliberately not atomic: a per-manager atomic add is uncontended but
	// still a locked instruction per record, measured at +10 % on
	// graphchi_p2's unit time (24.9 vs 22.3 probes, six alternating pairs).
	// The price is Stats' contract: see there.
	records int64

	// cache is the owning scope's page cache; nil for managers created
	// outside a scope (e.g. the VM root manager), which always use the
	// global pool.
	cache *pageCache

	// IterID identifies the iteration this manager serves; -1 is the
	// thread-default manager ⟨⊥, t⟩. ThreadID identifies the owning thread.
	IterID   int
	ThreadID int
}

// NewManager creates a page manager. parent may be nil for a root manager.
func (rt *Runtime) NewManager(parent *PageManager, iterID, threadID int) *PageManager {
	m := &PageManager{rt: rt, parent: parent, IterID: iterID, ThreadID: threadID}
	rt.stats.managers.Add(1)
	rt.mu.Lock()
	rt.live[m] = struct{}{}
	rt.mu.Unlock()
	if parent != nil {
		parent.childMu.Lock()
		parent.children = append(parent.children, m)
		parent.childMu.Unlock()
	}
	return m
}

// alloc carves size zeroed bytes, writes the record header into them —
// the type word and, for arrays (arrLen >= 0), the length — and returns
// their page reference. The header goes through the page in hand, while
// the acquire or bump pin still holds it resident, so no second resolution
// is needed. Allocation from a released manager and page-acquire failures
// surface as typed errors (ErrReleasedManager, ErrPageExhausted) rather
// than panics, so they can propagate through the VM boundary and be
// recovered from.
func (m *PageManager) alloc(size int, typeWord uint16, arrLen int) (PageRef, error) {
	if m.released {
		return 0, fmt.Errorf("%w (iteration %d, thread %d)", ErrReleasedManager, m.IterID, m.ThreadID)
	}
	size = (size + 7) &^ 7
	ci := classFor(size)
	if ci < 0 || size > PageSize/2 {
		// Large record: an empty page of its own ("large arrays are
		// allocated on empty pages"), oversize if it exceeds PageSize.
		want := size
		if want < PageSize {
			want = PageSize
		}
		var p *page
		var err error
		if want == PageSize {
			p, err = m.acquirePage()
		} else {
			p, err = m.rt.getPage(want)
		}
		if err != nil {
			return 0, err
		}
		m.pages = append(m.pages, p)
		m.notePages()
		p.pos = size
		initRecord(p.buf[:size], typeWord, arrLen)
		// The acquire pin held the page resident through the init writes;
		// from here on record accessors pin it per operation.
		m.rt.unpinAcquire(p)
		m.finishAlloc()
		return MakeRef(p.idx, 0), nil
	}
	p := m.cur[ci]
	if p == nil || p.pos+size > len(p.buf) {
		var err error
		p, err = m.acquirePage()
		if err != nil {
			return 0, err
		}
		// The new page keeps its acquire pin as the bump-page pin: the
		// evictor must never target the page a manager is bump-allocating
		// into. The replaced page's pin is dropped here.
		m.rt.unpinAcquire(m.cur[ci])
		m.pages = append(m.pages, p)
		m.notePages()
		m.cur[ci] = p
	}
	off := p.pos
	p.pos += size
	initRecord(p.buf[off:off+size], typeWord, arrLen)
	m.finishAlloc()
	return MakeRef(p.idx, off), nil
}

// initRecord zeroes a freshly carved record and writes its header.
func initRecord(b []byte, typeWord uint16, arrLen int) {
	zero(b)
	putU16(b, typeWord)
	if arrLen >= 0 {
		putU32(b[4:], uint32(arrLen))
	}
}

// finishAlloc counts the record and lets the tier rebalance.
func (m *PageManager) finishAlloc() {
	m.records++
	m.rt.maybeEvict()
}

// acquirePage returns a PageSize page, preferring the scope cache (a pop
// plus lock-free stat updates) over the runtime's locked getPage path. A
// fault injected at the cache-hit acquire point puts the page back, so the
// cache's contents are unchanged by a failed acquire.
func (m *PageManager) acquirePage() (*page, error) {
	if m.cache != nil {
		if e, ok := m.cache.pop(); ok {
			if err := m.rt.noteCachedRecycle(e.p); err != nil {
				m.cache.put(e.p, e.srcIter)
				return nil, err
			}
			return e.p, nil
		}
	}
	return m.rt.getPage(PageSize)
}

func zero(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// notePages updates the manager's page high-water mark; callers are the
// owning thread (Alloc is single-threaded by construction).
func (m *PageManager) notePages() {
	if len(m.pages) > m.hwPages {
		m.hwPages = len(m.pages)
	}
}

// PageHighWater returns the most pages this manager has owned at once
// (excluding children).
func (m *PageManager) PageHighWater() int { return m.hwPages }

// ReleaseAll releases every page owned by this manager and, recursively,
// by its children — the bulk reclamation that ends a (sub-)iteration.
// The release is announced on the runtime's event stream with the
// manager's identity and page high-water mark.
func (m *PageManager) ReleaseAll() {
	if m.released {
		return
	}
	m.released = true
	m.rt.mu.Lock()
	delete(m.rt.live, m)
	m.rt.stats.records.Add(m.records)
	m.rt.mu.Unlock()
	m.rt.obs.Emit(obs.EvManagerRelease, "", int64(m.IterID), int64(m.ThreadID), int64(m.hwPages))
	m.childMu.Lock()
	children := m.children
	m.children = nil
	m.childMu.Unlock()
	for _, c := range children {
		c.ReleaseAll()
	}
	for i := range m.cur {
		m.rt.unpinAcquire(m.cur[i]) // drop the bump-page pins before releasing
	}
	tiered := m.rt.tier != nil
	for _, p := range m.pages {
		if m.cache != nil && !m.rt.DisableRecycle &&
			(tiered || len(p.buf) == PageSize) {
			// Tiered: cacheRelease checks the size itself, under the page's
			// tier lock — p.buf may be concurrently nil'd by the evictor.
			if m.rt.cacheRelease(m.cache, p, m.IterID) {
				continue
			}
		}
		m.rt.releasePage(p)
	}
	m.pages = nil
	for i := range m.cur {
		m.cur[i] = nil
	}
	if m.parent != nil {
		m.parent.childMu.Lock()
		for i, c := range m.parent.children {
			if c == m {
				m.parent.children = append(m.parent.children[:i], m.parent.children[i+1:]...)
				break
			}
		}
		m.parent.childMu.Unlock()
	}
}

// Released reports whether the manager's pages have been reclaimed.
func (m *PageManager) Released() bool { return m.released }

// PageCount returns the number of pages currently owned (excluding
// children).
func (m *PageManager) PageCount() int { return len(m.pages) }

// AllocRecord allocates a zeroed scalar record with the given type ID and
// body size and returns its page reference.
func (m *PageManager) AllocRecord(typeID uint16, bodySize int) (PageRef, error) {
	return m.alloc(ScalarHeader+bodySize, typeID, -1)
}

// AllocArray allocates a zeroed array record for n elements of elemSize
// bytes, tagged with the array type index (-1, from an exhausted
// ArrayTypeIndex registry, is rejected with ErrTooManyArrayTypes).
func (m *PageManager) AllocArray(arrTypeIdx int, elemSize, n int) (PageRef, error) {
	if n < 0 {
		return 0, fmt.Errorf("offheap: negative array size %d", n)
	}
	if arrTypeIdx < 0 {
		return 0, ErrTooManyArrayTypes
	}
	return m.alloc(ArrayHeader+n*elemSize, arrayTypeBit|uint16(arrTypeIdx), n)
}

// IterScope manages a thread's stack of page managers: the default
// manager at the bottom, one manager per active (sub-)iteration above it.
type IterScope struct {
	rt       *Runtime
	stack    []*PageManager
	nextIter *int
	threadID int
	cache    *pageCache
}

// NewIterScope creates the scope for a thread whose default manager is a
// child of parent (the manager current in the creating thread; nil for the
// first thread). nextIter supplies global iteration IDs.
func (rt *Runtime) NewIterScope(parent *PageManager, nextIter *int, threadID int) *IterScope {
	def := rt.NewManager(parent, -1, threadID)
	c := &pageCache{}
	def.cache = c
	return &IterScope{rt: rt, stack: []*PageManager{def}, nextIter: nextIter, threadID: threadID, cache: c}
}

// Current returns the manager new records should be allocated from.
func (s *IterScope) Current() *PageManager { return s.stack[len(s.stack)-1] }

// Default returns the thread-default manager ⟨⊥, t⟩.
func (s *IterScope) Default() *PageManager { return s.stack[0] }

// IterationStart opens a (sub-)iteration: a child manager of the current
// one becomes the allocation target.
func (s *IterScope) IterationStart() {
	id := *s.nextIter
	*s.nextIter = id + 1
	m := s.rt.NewManager(s.Current(), id, s.threadID)
	m.cache = s.cache
	s.stack = append(s.stack, m)
}

// IterationEnd closes the innermost iteration and releases its pages (and
// those of any nested iterations and spawned threads parented under it).
func (s *IterScope) IterationEnd() {
	if len(s.stack) == 1 {
		panic("offheap: IterationEnd without matching IterationStart")
	}
	m := s.Current()
	s.stack = s.stack[:len(s.stack)-1]
	m.ReleaseAll()
}

// Close releases the thread's default manager (thread termination) and
// hands the scope's cached pages back to the global pool.
func (s *IterScope) Close() {
	for len(s.stack) > 1 {
		s.IterationEnd()
	}
	s.stack[0].ReleaseAll()
	s.drainCache()
}

// drainCache moves cached pages to the runtime free pool. The pages were
// already stat-released when they entered the cache, so only the free-list
// append remains (they are simply dropped under DisableRecycle, like any
// released page).
func (s *IterScope) drainCache() {
	s.cache.mu.Lock()
	entries := s.cache.entries
	s.cache.entries = nil
	s.cache.mu.Unlock()
	if len(entries) == 0 || s.rt.DisableRecycle {
		return
	}
	s.rt.mu.Lock()
	for _, e := range entries {
		s.rt.free = append(s.rt.free, e.p)
	}
	s.rt.mu.Unlock()
}

// CachedPages returns the number of pages parked in the scope cache
// (observability and tests).
func (s *IterScope) CachedPages() int {
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	return len(s.cache.entries)
}

// Depth returns the number of open iterations.
func (s *IterScope) Depth() int { return len(s.stack) - 1 }
