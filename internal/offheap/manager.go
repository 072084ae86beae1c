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

// PageManager allocates records for one ⟨iterationID, thread⟩ pair and
// owns the pages it allocates from. Managers form the runtime tree of
// §3.6: a sub-iteration's manager is a child of the enclosing iteration's
// manager, and a new thread's default manager is a child of the manager
// current in the creating thread. Releasing a manager releases the whole
// subtree's pages at once.
//
// Alloc is single-threaded by construction (a manager belongs to one
// thread); the children list is the only shared state.
//
// The allocation state is written on every record, and the managers of
// two threads are often allocated back to back, so every field sits
// between two 128-byte pads: no cache line pair holding one reaches
// another object (the same layout as vm.Thread, for the same reason).
type PageManager struct {
	_ [cacheLinePair]byte

	// cur is the bump page of each size class and pos the offset of its
	// next free byte; only the owning manager allocates from it.
	cur     [numClasses]*page
	pos     [numClasses]int
	pages   []*page
	hwPages int // most pages this manager has owned at once
	// records counts this manager's allocations without touching shared
	// state on the allocation path; ReleaseAll adds it to the runtime's
	// records_released counter and Stats folds in the managers still live,
	// so the total stays exact.
	// Deliberately not atomic: a per-manager atomic add is uncontended but
	// still a locked instruction per record, measured at +10 % on
	// graphchi_p2's unit time (24.9 vs 22.3 probes, six alternating pairs).
	// The price is Stats' contract: see there.
	records  int64
	released bool

	rt     *Runtime
	parent *PageManager

	childMu  sync.Mutex
	children []*PageManager

	// IterID identifies the iteration this manager serves; -1 is the
	// thread-default manager ⟨⊥, t⟩. ThreadID identifies the owning thread.
	IterID   int
	ThreadID int

	_ [cacheLinePair]byte
}

// cacheLinePair is the span false sharing reaches: a 64-byte line plus the
// adjacent one the spatial prefetcher fetches with it.
const cacheLinePair = 128

// NewManager creates a page manager. parent may be nil for a root manager.
func (rt *Runtime) NewManager(parent *PageManager, iterID, threadID int) *PageManager {
	m := &PageManager{rt: rt, parent: parent, IterID: iterID, ThreadID: threadID}
	rt.cManagers.Inc()
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
// their page reference and the bytes Bytes would resolve it to. The header
// goes through the page in hand, while the acquire or bump pin still holds
// it resident, so no second resolution is needed. A bump page stays pinned;
// a large record's page may be spilled by the allocation's own end, and its
// bytes are then nil. pk is the allocating thread's Parker, handed to the
// spill a page acquire or the allocation's end may start. Allocation from a
// released manager and page-acquire failures surface as typed errors
// (ErrReleasedManager, ErrPageExhausted) rather than panics, so they can
// propagate through the VM boundary and be recovered from.
func (m *PageManager) alloc(pk Parker, size int, typeWord uint16, arrLen int) (PageRef, []byte, error) {
	if m.released {
		return 0, nil, fmt.Errorf("%w (iteration %d, thread %d)", ErrReleasedManager, m.IterID, m.ThreadID)
	}
	size = (size + 7) &^ 7
	ci := classFor(size)
	if ci < 0 || size > PageSize/2 {
		// Large record: an empty page of its own ("large arrays are
		// allocated on empty pages"), oversize if it exceeds PageSize.
		p, err := m.rt.getPage(size, pk)
		if err != nil {
			return 0, nil, err
		}
		m.pages = append(m.pages, p)
		m.notePages()
		initRecord(p.bytes()[:size], typeWord, arrLen)
		// The acquire pin held the page resident through the init writes;
		// from here on it may spill like any other.
		m.rt.unpinAcquire(p)
		m.finishAlloc(pk)
		return MakeRef(p.idx, 0), p.bytes(), nil
	}
	p := m.cur[ci]
	if p == nil || m.pos[ci]+size > PageSize {
		var err error
		p, err = m.rt.getPage(PageSize, pk)
		if err != nil {
			return 0, nil, err
		}
		// The new page keeps its acquire pin as the bump-page pin: the
		// evictor must never take the page a manager is bump-allocating
		// into. The replaced page's pin is dropped here.
		m.rt.unpinAcquire(m.cur[ci])
		m.pages = append(m.pages, p)
		m.notePages()
		m.cur[ci], m.pos[ci] = p, 0
	}
	off := m.pos[ci]
	m.pos[ci] += size
	b := p.bytes()[off:]
	initRecord(b[:size], typeWord, arrLen)
	m.finishAlloc(pk)
	return MakeRef(p.idx, off), b, nil
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
func (m *PageManager) finishAlloc(pk Parker) {
	m.records++
	m.rt.maybeEvict(pk)
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
	m.rt.cRecordsReleased.Add(m.records)
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
	for _, p := range m.pages {
		m.rt.releasePage(p, true)
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

// LiveManagers returns how many page managers have not been released — with
// Pins, the store's leak probe: once a (sub-)iteration ends, only thread
// defaults, the root scope and still-open iterations remain.
func (rt *Runtime) LiveManagers() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.live)
}

// Released reports whether the manager's pages have been reclaimed.
func (m *PageManager) Released() bool { return m.released }

// PageCount returns the number of pages currently owned (excluding
// children).
func (m *PageManager) PageCount() int { return len(m.pages) }

// AllocRecord allocates a zeroed scalar record with the given type ID and
// body size and returns its page reference. pk parks the allocating thread
// for a spill the allocation starts (nil: spill inline).
func (m *PageManager) AllocRecord(pk Parker, typeID uint16, bodySize int) (PageRef, error) {
	ref, _, err := m.alloc(pk, ScalarHeader+bodySize, typeID, -1)
	return ref, err
}

// NewRecord is AllocRecord for a caller that writes the record at once: it
// also returns the record's bytes, valid as Bytes' are, or nil when the
// allocation's own spill took the page (only a record over half a page
// has one of its own).
func (m *PageManager) NewRecord(pk Parker, typeID uint16, bodySize int) (PageRef, []byte, error) {
	return m.alloc(pk, ScalarHeader+bodySize, typeID, -1)
}

// AllocArray allocates a zeroed array record for n elements of elemSize
// bytes, tagged with the array type index: the element type's index in the
// program's table, below MaxArrayTypes.
func (m *PageManager) AllocArray(pk Parker, arrTypeIdx int, elemSize, n int) (PageRef, error) {
	if n < 0 {
		return 0, fmt.Errorf("offheap: negative array size %d", n)
	}
	ref, _, err := m.alloc(pk, ArrayHeader+n*elemSize, arrayTypeBit|uint16(arrTypeIdx), n)
	return ref, err
}

// IterScope manages a thread's stack of page managers: the default
// manager at the bottom, one manager per active (sub-)iteration above it.
type IterScope struct {
	rt       *Runtime
	stack    []*PageManager
	threadID int
}

// NewIterScope creates the scope for a thread whose default manager is a
// child of parent (the manager current in the creating thread; nil for the
// first thread).
func (rt *Runtime) NewIterScope(parent *PageManager, threadID int) *IterScope {
	def := rt.NewManager(parent, -1, threadID)
	return &IterScope{rt: rt, stack: []*PageManager{def}, threadID: threadID}
}

// Current returns the manager new records should be allocated from.
func (s *IterScope) Current() *PageManager { return s.stack[len(s.stack)-1] }

// Default returns the thread-default manager ⟨⊥, t⟩.
func (s *IterScope) Default() *PageManager { return s.stack[0] }

// IterationStart opens a (sub-)iteration: a child manager of the current
// one becomes the allocation target, under the store's next iteration ID.
func (s *IterScope) IterationStart() {
	id := int(s.rt.nextIter.Add(1) - 1)
	s.stack = append(s.stack, s.rt.NewManager(s.Current(), id, s.threadID))
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

// Close releases the thread's default manager (thread termination).
func (s *IterScope) Close() {
	for len(s.stack) > 1 {
		s.IterationEnd()
	}
	s.stack[0].ReleaseAll()
}

// Depth returns the number of open iterations.
func (s *IterScope) Depth() int { return len(s.stack) - 1 }
