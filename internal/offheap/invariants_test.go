package offheap

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// Invariant tests for the native store: size-class boundary behavior,
// page high-water monotonicity, release idempotence, and the pool's
// one-owner-per-page property under concurrent scopes.

func TestSizeClassBoundaries(t *testing.T) {
	// classFor operates on the full record size (header + body, rounded to
	// 8); the table is 64/256/1024/4096/PageSize/2, with -1 meaning "empty
	// page of its own" (§3.6 large records) or oversize.
	cases := []struct {
		size, class int
	}{
		{1, 0}, {64, 0},
		{65, 1}, {256, 1},
		{257, 2}, {1024, 2},
		{1025, 3}, {4096, 3},
		{4097, 4}, {PageSize / 2, 4},
		{PageSize/2 + 1, -1},
		{PageSize, -1},
		{PageSize + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.size); got != c.class {
			t.Errorf("classFor(%d) = %d, want %d", c.size, got, c.class)
		}
	}

	// Allocation-level behavior at the boundaries. Two records of exactly
	// PageSize/2 must share one page; one byte more forces a dedicated
	// empty page; more than a page is oversize and counted as such.
	rt := NewRuntime(nil)
	s := newScope(rt, 0)
	defer s.Close()
	m := s.Current()

	half := PageSize/2 - ScalarHeader // body size for a PageSize/2 record
	mustRecord(t, m, 1, half)
	mustRecord(t, m, 1, half)
	if got := m.PageCount(); got != 1 {
		t.Fatalf("two half-page records occupy %d pages, want 1 shared page", got)
	}
	mustRecord(t, m, 1, half)
	if got := m.PageCount(); got != 2 {
		t.Fatalf("third half-page record: %d pages, want 2", got)
	}

	mustRecord(t, m, 1, half+8) // rounds past PageSize/2: dedicated page
	if got := m.PageCount(); got != 3 {
		t.Fatalf("large record did not get its own page: %d pages", got)
	}
	mustRecord(t, m, 1, 16) // small record must NOT land on the dedicated page
	if got := m.PageCount(); got != 4 {
		t.Fatalf("small record shared a dedicated large page: %d pages", got)
	}

	before := rt.Stats().Oversize
	ref := mustRecord(t, m, 1, PageSize) // header pushes it past PageSize
	if got := rt.Stats().Oversize; got != before+1 {
		t.Fatalf("oversize count %d, want %d", got, before+1)
	}
	if !rt.ReleaseOversize(ref) {
		t.Fatal("oversize record not releasable early")
	}
}

func TestPageHighWaterMonotonic(t *testing.T) {
	// PageHighWater must track max(PageCount) over the manager's lifetime:
	// never decrease, never undershoot the current count, and survive
	// ReleaseAll as a record of the peak.
	check := func(seed int64) bool {
		rt := NewRuntime(nil)
		s := newScope(rt, 0)
		defer s.Close()
		s.IterationStart()
		m := s.Current()
		rng := rand.New(rand.NewSource(seed))
		prevHW, maxSeen := 0, 0
		for op := 0; op < 200; op++ {
			// Mix of class sizes so several cur[] pages are in flight.
			body := []int{16, 200, 900, 4000, PageSize / 2}[rng.Intn(5)]
			if _, err := m.AllocRecord(nil, 1, body); err != nil {
				t.Fatal(err)
			}
			hw := m.PageHighWater()
			if hw < prevHW {
				t.Errorf("seed %d op %d: high water fell %d -> %d", seed, op, prevHW, hw)
				return false
			}
			if hw < m.PageCount() {
				t.Errorf("seed %d op %d: high water %d < live pages %d", seed, op, hw, m.PageCount())
				return false
			}
			if m.PageCount() > maxSeen {
				maxSeen = m.PageCount()
			}
			prevHW = hw
		}
		if m.PageHighWater() != maxSeen {
			t.Errorf("seed %d: high water %d != observed max %d", seed, m.PageHighWater(), maxSeen)
			return false
		}
		s.IterationEnd()
		if m.PageCount() != 0 {
			t.Errorf("seed %d: pages remain after release", seed)
			return false
		}
		if m.PageHighWater() != maxSeen {
			t.Errorf("seed %d: release erased the high-water mark", seed)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleReleaseIsIdempotent(t *testing.T) {
	rt := NewRuntime(nil)
	s := newScope(rt, 0)
	s.IterationStart()
	m := s.Current()
	for i := 0; i < 50; i++ {
		mustRecord(t, m, 1, 100)
	}
	s.IterationEnd()
	after := rt.Stats()
	if after.PagesLive < 0 || after.BytesInUse < 0 {
		t.Fatalf("negative accounting after release: %+v", after)
	}
	// Releasing again must change nothing: no double stat decrement, no
	// page freed twice into the pool.
	m.ReleaseAll()
	m.ReleaseAll()
	if again := rt.Stats(); again != after {
		t.Fatalf("double release changed stats:\nfirst:  %+v\nsecond: %+v", after, again)
	}
	// And allocation from the released manager fails with the typed error.
	if _, err := m.AllocRecord(nil, 1, 8); !errors.Is(err, ErrReleasedManager) {
		t.Fatalf("alloc after release: %v, want ErrReleasedManager", err)
	}
	s.Close()
	if final := rt.Stats(); final.PagesLive != 0 {
		t.Fatalf("pages live after scope close: %d", final.PagesLive)
	}
}

// TestPoolNeverSharesAPage is the pool's isolation property: with several
// threads acquiring from and releasing to the one free list at once, a page
// is owned by at most one live manager, a page on the free list is owned by
// none, and once every scope has closed the books balance — nothing live,
// and every page ever created is back on a free list, standard or oversize,
// or was a dropped oversize page. Checked against random open/alloc/close walks on
// one goroutine per scope; the -race run in CI checks the locking itself.
func TestPoolNeverSharesAPage(t *testing.T) {
	const (
		workers = 3
		ops     = 300
	)
	rt := NewRuntime(nil)
	var iterMu sync.Mutex // the iteration-ID counter is shared and plain
	scopes := make([]*IterScope, workers)
	for w := range scopes {
		scopes[w] = newScope(rt, w)
	}

	// Workers mutate their scope under world.RLock, so they run concurrently
	// with each other; a check takes world.Lock and sees every scope at rest.
	var world sync.RWMutex
	assertUnshared := func(w, op int) {
		world.Lock()
		defer world.Unlock()
		owner := map[*page]*PageManager{}
		for _, s := range scopes {
			for _, m := range s.stack {
				for _, p := range m.pages {
					if p.released.Load() {
						continue // oversize page freed early; its manager only keeps the slot
					}
					if prev, ok := owner[p]; ok {
						t.Errorf("worker %d op %d: page %d owned by ⟨%d,%d⟩ and ⟨%d,%d⟩",
							w, op, p.idx, prev.IterID, prev.ThreadID, m.IterID, m.ThreadID)
					}
					owner[p] = m
				}
			}
		}
		rt.mu.Lock()
		defer rt.mu.Unlock()
		for _, p := range append(rt.free, rt.big...) {
			if m, ok := owner[p]; ok {
				t.Errorf("worker %d op %d: free-list page %d owned by ⟨%d,%d⟩", w, op, p.idx, m.IterID, m.ThreadID)
			}
		}
	}
	var early atomic.Int64 // oversize pages ReleaseOversize dropped

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := scopes[w]
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for op := 0; op < ops; op++ {
				world.RLock()
				switch rng.Intn(6) {
				case 0:
					if s.Depth() < 4 {
						iterMu.Lock()
						s.IterationStart()
						iterMu.Unlock()
					}
				case 1:
					if s.Depth() > 0 {
						s.IterationEnd()
					}
				case 2:
					// An oversize page, freed early half the time.
					ref, err := s.Current().AllocRecord(nil, 1, PageSize+rng.Intn(PageSize))
					if err != nil {
						t.Error(err)
					} else if rng.Intn(2) == 0 {
						if !rt.ReleaseOversize(ref) {
							t.Errorf("worker %d op %d: oversize record not releasable", w, op)
						}
						early.Add(1)
					}
				default:
					// Enough churn that iterations routinely span pages.
					body := []int{32, 512, 3000, 20000}[rng.Intn(4)]
					for i := 0; i < 30; i++ {
						if _, err := s.Current().AllocRecord(nil, 1, body); err != nil {
							t.Error(err)
						}
					}
				}
				world.RUnlock()
				if op%10 == 0 {
					assertUnshared(w, op)
				}
			}
			world.RLock()
			s.Close()
			world.RUnlock()
			assertUnshared(w, ops)
		}(w)
	}
	wg.Wait()

	st := rt.Stats()
	if st.PagesLive != 0 {
		t.Errorf("%d page(s) live after every scope closed", st.PagesLive)
	}
	if st.PagesRecycled == 0 || st.Oversize == 0 {
		t.Errorf("walk never exercised the pool: %+v", st)
	}
	// Every page ever created is on one of the two free lists or a dead
	// slot whose body went back to the region source: each early release
	// leaves one, and an iteration-end release past the oversize pool's
	// bound may leave more.
	table := *rt.table.Load()
	var dropped int64
	for _, p := range table {
		if p.bytes() == nil {
			dropped++
		}
	}
	free, big := int64(len(rt.free)), int64(len(rt.big))
	if st.PagesCreated != int64(len(table)) || st.PagesCreated != free+big+dropped || dropped < early.Load() {
		t.Errorf("created %d (table %d) != free %d + free oversize %d + dropped %d (%d of them early)",
			st.PagesCreated, len(table), free, big, dropped, early.Load())
	}
}
