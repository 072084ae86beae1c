package offheap

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/faults"
	"repro/internal/region"
)

func newScope(rt *Runtime, tid int) *IterScope {
	return rt.NewIterScope(nil, tid)
}

func mustRecord(t testing.TB, m *PageManager, typeID uint16, size int) PageRef {
	t.Helper()
	ref, err := m.AllocRecord(nil, typeID, size)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// resident resolves ref with Resident, which promotes a spilled page and
// spills none, so the tests may hold the bytes of several records at once.
// A failed promotion fails the test: the tests that inject one call
// Resident and Fault themselves.
func resident(rt *Runtime, ref PageRef) []byte {
	b, err := rt.Resident(ref)
	if err != nil {
		panic(err)
	}
	return b
}

// recordBody skips the header of resolved record bytes.
func recordBody(b []byte) []byte {
	if _, ok := ArrayType(TypeWord(b)); ok {
		return b[ArrayHeader:]
	}
	return b[ScalarHeader:]
}

// get and put read and write one typed slot of a record body the way
// production code does: one resolution, the header skipped, the value
// decoded in place. The store itself exports no per-type accessors.
func get[T int8 | int32 | int64 | float64](rt *Runtime, ref PageRef, off int) T {
	b := recordBody(resident(rt, ref))[off:]
	var v T
	switch p := any(&v).(type) {
	case *int8:
		*p = int8(b[0])
	case *int32:
		*p = int32(getU32(b))
	case *int64:
		*p = int64(getU64(b))
	case *float64:
		*p = math.Float64frombits(getU64(b))
	}
	return v
}

func put[T int8 | int32 | int64 | float64](rt *Runtime, ref PageRef, off int, v T) {
	b := recordBody(resident(rt, ref))[off:]
	switch v := any(v).(type) {
	case int8:
		b[0] = byte(v)
	case int32:
		putU32(b, uint32(v))
	case int64:
		putU64(b, uint64(v))
	case float64:
		putU64(b, math.Float64bits(v))
	}
}

func TestRecordRoundtrip(t *testing.T) {
	rt := NewRuntime(nil)
	s := newScope(rt, 0)
	defer s.Close()
	ref := mustRecord(t, s.Current(), 7, 64)
	if tw := TypeWord(rt.Bytes(ref)); tw != 7 {
		t.Fatalf("bad scalar header: type word %#x", tw)
	}
	put(rt, ref, 0, int32(-123))
	put(rt, ref, 8, int64(1<<40))
	put(rt, ref, 16, 3.25)
	put(rt, ref, 24, int8(-5))
	put(rt, ref, 32, ref)
	if get[int32](rt, ref, 0) != -123 || get[int64](rt, ref, 8) != 1<<40 ||
		get[float64](rt, ref, 16) != 3.25 || get[int8](rt, ref, 24) != -5 ||
		get[PageRef](rt, ref, 32) != ref {
		t.Fatal("record field roundtrip failed")
	}
}

func TestArrayRecord(t *testing.T) {
	rt := NewRuntime(nil)
	s := newScope(rt, 0)
	defer s.Close()
	idx := MaxArrayTypes - 1 // the store keeps the index it is handed, up to the type word's last
	ref, err := s.Current().AllocArray(nil, idx, 4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	b := rt.Bytes(ref)
	if got, ok := ArrayType(TypeWord(b)); !ok || got != idx || ArrayLength(b) != 1000 {
		t.Fatal("bad array header")
	}
	for i := 0; i < 1000; i++ {
		put(rt, ref, i*4, int32(i))
	}
	for i := 0; i < 1000; i++ {
		if get[int32](rt, ref, i*4) != int32(i) {
			t.Fatalf("elem %d", i)
		}
	}
}

func TestHeaderSizesMatchPaper(t *testing.T) {
	// Figure 1: 4-byte record header, 8 bytes for arrays (2-byte type ID,
	// 2-byte lock, 4-byte length).
	if ScalarHeader != 4 || ArrayHeader != 8 {
		t.Fatalf("headers %d/%d", ScalarHeader, ArrayHeader)
	}
}

// TestRecordValuesSurviveRandomOps is a property test over random record
// writes: values read back must match a shadow model.
func TestRecordValuesSurviveRandomOps(t *testing.T) {
	check := func(seed int64) bool {
		rt := NewRuntime(nil)
		s := newScope(rt, 0)
		defer s.Close()
		rng := rand.New(rand.NewSource(seed))
		type slot struct {
			ref PageRef
			off int
		}
		shadow := make(map[slot]int64)
		var refs []PageRef
		for i := 0; i < 50; i++ {
			refs = append(refs, mustRecord(t, s.Current(), uint16(i%100), 128))
		}
		for op := 0; op < 2000; op++ {
			sl := slot{refs[rng.Intn(len(refs))], rng.Intn(15) * 8}
			v := rng.Int63()
			put(rt, sl.ref, sl.off, v)
			shadow[sl] = v
		}
		for sl, v := range shadow {
			if get[int64](rt, sl.ref, sl.off) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestIterationReclaimsPages(t *testing.T) {
	rt := NewRuntime(nil)
	s := newScope(rt, 0)
	defer s.Close()
	for iter := 0; iter < 10; iter++ {
		s.IterationStart()
		for i := 0; i < 10000; i++ {
			s.Current().AllocRecord(nil, 1, 48)
		}
		s.IterationEnd()
	}
	st := rt.Stats()
	// Pages must be recycled across iterations: the distinct page count
	// should be roughly one iteration's worth, not ten.
	if st.PagesCreated > 40 {
		t.Fatalf("pages created = %d; recycling is not working", st.PagesCreated)
	}
	if st.PagesRecycled == 0 {
		t.Fatal("no pages were recycled")
	}
	if st.PagesLive != 0 {
		t.Fatalf("%d pages still live after all iterations ended", st.PagesLive)
	}
}

func TestNestedIterations(t *testing.T) {
	rt := NewRuntime(nil)
	s := newScope(rt, 0)
	defer s.Close()
	s.IterationStart()
	outer := s.Current()
	outerRec := mustRecord(t, outer, 1, 32)
	put(rt, outerRec, 0, int32(77))
	for sub := 0; sub < 5; sub++ {
		s.IterationStart()
		if s.Depth() != 2 {
			t.Fatalf("depth %d", s.Depth())
		}
		for i := 0; i < 5000; i++ {
			s.Current().AllocRecord(nil, 2, 64)
		}
		s.IterationEnd()
	}
	// Outer iteration's data is untouched by sub-iteration reclamation.
	if get[int32](rt, outerRec, 0) != 77 {
		t.Fatal("outer record corrupted by sub-iteration release")
	}
	s.IterationEnd()
	if rt.Stats().PagesLive != 0 {
		t.Fatal("pages leak after outer iteration end")
	}
}

func TestThreadManagerParentedUnderIteration(t *testing.T) {
	// A thread spawned during an iteration gets a manager parented under
	// that iteration's manager; ending the iteration reclaims the
	// (closed) thread's pages too.
	rt := NewRuntime(nil)
	main := newScope(rt, 0)
	defer main.Close()
	main.IterationStart()
	child := rt.NewIterScope(main.Current(), 1)
	child.Current().AllocRecord(nil, 3, 64)
	// Thread finishes without closing explicitly: the subtree release at
	// iteration end must still reclaim it.
	main.IterationEnd()
	if rt.Stats().PagesLive != 0 {
		t.Fatalf("%d pages live; thread manager not released with iteration", rt.Stats().PagesLive)
	}
	if !child.Default().Released() {
		t.Fatal("child default manager not released")
	}
}

func TestOversizeAllocation(t *testing.T) {
	rt := NewRuntime(nil)
	s := newScope(rt, 0)
	defer s.Close()
	ref, err := s.Current().AllocArray(nil, 0, 1, 5*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if ArrayLength(rt.Bytes(ref)) != 5*PageSize {
		t.Fatal("oversize length wrong")
	}
	put(rt, ref, 5*PageSize-1, int8(42))
	if get[int8](rt, ref, 5*PageSize-1) != 42 {
		t.Fatal("oversize tail write failed")
	}
	if rt.Stats().Oversize != 1 {
		t.Fatalf("oversize count %d", rt.Stats().Oversize)
	}
}

func TestLargeRecordGetsOwnPage(t *testing.T) {
	rt := NewRuntime(nil)
	s := newScope(rt, 0)
	defer s.Close()
	// Two large-but-not-oversize arrays must land on distinct pages
	// ("large arrays are allocated on empty pages").
	a, _ := s.Current().AllocArray(nil, 0, 1, PageSize*3/4)
	b, _ := s.Current().AllocArray(nil, 0, 1, PageSize*3/4)
	pa, _ := splitRef(a)
	pb, _ := splitRef(b)
	if pa == pb {
		t.Fatal("two large arrays share a page")
	}
}

func TestContiguousSmallAllocations(t *testing.T) {
	rt := NewRuntime(nil)
	s := newScope(rt, 0)
	defer s.Close()
	// Policy 1: consecutive small records of the same size class are
	// contiguous within a page.
	a := mustRecord(t, s.Current(), 1, 20)
	b := mustRecord(t, s.Current(), 1, 20)
	pa, oa := splitRef(a)
	pb, ob := splitRef(b)
	if pa != pb || ob != oa+24 { // 4-byte header + 20 rounded to 24
		t.Fatalf("not contiguous: page %d off %d -> page %d off %d", pa, oa, pb, ob)
	}
}

// ---------------------------------------------------------------------------
// Lock pool

func TestLockPoolMutualExclusion(t *testing.T) {
	rt, lp := NewRuntime(nil), NewLockPool()
	s := newScope(rt, 0)
	defer s.Close()
	rec := mustRecord(t, s.Current(), 1, 16)
	put(rt, rec, 0, int32(0))

	const nThreads = 8
	const perThread = 1000
	var wg sync.WaitGroup
	for i := 0; i < nThreads; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Not &struct{}{}: pointers to zero-size values may all be
			// equal, which makes every goroutine the same (reentrant) owner.
			owner := new(int)
			for j := 0; j < perThread; j++ {
				if err := lp.Enter(lockOf(rt, rec), owner, nil); err != nil {
					t.Error(err)
					return
				}
				v := get[int32](rt, rec, 0)
				put(rt, rec, 0, v+1)
				if err := lp.Exit(lockOf(rt, rec), owner); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if got := get[int32](rt, rec, 0); got != nThreads*perThread {
		t.Fatalf("counter = %d, want %d (lock pool does not exclude)", got, nThreads*perThread)
	}
	// After the last exit the lock returns to the pool and the record's
	// lock field is zeroed (§3.4).
	if getU16(lockOf(rt, rec)) != 0 {
		t.Fatal("record lock field not zeroed after release")
	}
	if lp.InUse() != 0 {
		t.Fatalf("%d locks still in use", lp.InUse())
	}
}

func TestLockPoolReentrancy(t *testing.T) {
	rt, lp := NewRuntime(nil), NewLockPool()
	s := newScope(rt, 0)
	defer s.Close()
	rec := mustRecord(t, s.Current(), 1, 16)
	owner := &struct{}{}
	for i := 0; i < 3; i++ {
		if err := lp.Enter(lockOf(rt, rec), owner, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := lp.Exit(lockOf(rt, rec), owner); err != nil {
			t.Fatal(err)
		}
	}
	if lp.InUse() != 0 {
		t.Fatal("reentrant lock not released")
	}
}

func TestLockPoolBound(t *testing.T) {
	// The number of pool locks in use is bounded by concurrent
	// synchronization, not by the number of records ever locked.
	rt, lp := NewRuntime(nil), NewLockPool()
	s := newScope(rt, 0)
	defer s.Close()
	owner := &struct{}{}
	for i := 0; i < 10000; i++ {
		rec := mustRecord(t, s.Current(), 1, 16)
		if err := lp.Enter(lockOf(rt, rec), owner, nil); err != nil {
			t.Fatal(err)
		}
		if err := lp.Exit(lockOf(rt, rec), owner); err != nil {
			t.Fatal(err)
		}
	}
	if peak := lp.PeakInUse(); peak != 1 {
		t.Fatalf("peak locks %d, want 1: locks are not recycled", peak)
	}
}

func TestLockPoolExitErrors(t *testing.T) {
	rt, lp := NewRuntime(nil), NewLockPool()
	s := newScope(rt, 0)
	defer s.Close()
	rec := mustRecord(t, s.Current(), 1, 16)
	if err := lp.Exit(lockOf(rt, rec), &struct{}{}); err == nil {
		t.Fatal("exit without enter must fail")
	}
	a, b := new(int), new(int) // distinct: zero-size pointers need not be
	if err := lp.Enter(lockOf(rt, rec), a, nil); err != nil {
		t.Fatal(err)
	}
	if err := lp.Exit(lockOf(rt, rec), b); err == nil {
		t.Fatal("exit by non-owner must fail")
	}
	if err := lp.Exit(lockOf(rt, rec), a); err != nil {
		t.Fatal(err)
	}
}

// lockOf is the lock field of record rec, the bytes a VM hands the pool.
func lockOf(rt *Runtime, rec PageRef) []byte { return rt.Bytes(rec)[2:4] }

// nestLocks enters the monitors of recs in order on behalf of owner,
// returning the lock ID each record was given, then exits them in reverse.
func nestLocks(t *testing.T, rt *Runtime, lp *LockPool, owner any, recs []PageRef) []uint16 {
	t.Helper()
	ids := make([]uint16, len(recs))
	for i, rec := range recs {
		if err := lp.Enter(lockOf(rt, rec), owner, nil); err != nil {
			t.Fatal(err)
		}
		ids[i] = getU16(lockOf(rt, rec))
	}
	for i := len(recs) - 1; i >= 0; i-- {
		if err := lp.Exit(lockOf(rt, recs[i]), owner); err != nil {
			t.Fatal(err)
		}
	}
	return ids
}

// TestLockPoolBuildsOnDemand: a job that never enters a monitor builds no
// pool lock; the locks one job builds serve the next job after the pool's
// and the store's Reset, under the same IDs and without growing.
func TestLockPoolBuildsOnDemand(t *testing.T) {
	rt, lp := NewRuntime(nil), NewLockPool()
	job := func(lock bool) []uint16 {
		t.Helper()
		s := newScope(rt, 0)
		defer s.Close()
		recs := make([]PageRef, 3)
		for i := range recs {
			recs[i] = mustRecord(t, s.Current(), 1, 16)
		}
		if !lock {
			return nil
		}
		return nestLocks(t, rt, lp, new(int), recs)
	}
	job(false)
	if n := lp.Built(); n != 0 {
		t.Fatalf("a monitor-free job built %d pool lock(s)", n)
	}
	for round := 0; round < 2; round++ {
		if err := lp.Reset(); err != nil {
			t.Fatal(err)
		}
		if err := rt.Reset(nil, nil); err != nil {
			t.Fatal(err)
		}
		if peak := lp.PeakInUse(); peak != 0 {
			t.Fatalf("round %d: peak %d survived Reset", round, peak)
		}
		if ids := job(true); !slices.Equal(ids, []uint16{1, 2, 3}) {
			t.Fatalf("round %d: lock IDs %v, want [1 2 3]", round, ids)
		}
		if n := lp.Built(); n != 3 {
			t.Fatalf("round %d: %d pool locks built, want 3", round, n)
		}
	}
}

// TestLockPoolExhaustion: the pool builds up to its cap and the next
// concurrent lock fails with the cap in the message.
func TestLockPoolExhaustion(t *testing.T) {
	rt, lp := NewRuntime(nil), NewLockPool()
	s := newScope(rt, 0)
	defer s.Close()
	owner := new(int)
	recs := make([]PageRef, lockPoolSize+1)
	for i := range recs {
		recs[i] = mustRecord(t, s.Current(), 1, 16)
	}
	for _, rec := range recs[:lockPoolSize] {
		if err := lp.Enter(lockOf(rt, rec), owner, nil); err != nil {
			t.Fatal(err)
		}
	}
	err := lp.Enter(lockOf(rt, recs[lockPoolSize]), owner, nil)
	if err == nil || err.Error() != "offheap: lock pool exhausted (4096 locks)" {
		t.Fatalf("lock %d: %v, want the exhaustion error", lockPoolSize+1, err)
	}
	for _, rec := range recs[:lockPoolSize] {
		if err := lp.Exit(lockOf(rt, rec), owner); err != nil {
			t.Fatal(err)
		}
	}
	if lp.InUse() != 0 || lp.Built() != lockPoolSize {
		t.Fatalf("in use %d, built %d after exhaustion", lp.InUse(), lp.Built())
	}
}

// TestLockPoolGrowsUnderContention has eight goroutines nest monitors on
// records of their own while the pool builds locks for them: run under
// -race, it checks that growing the lock slice and the bit vector never
// races with another thread's Enter or Exit.
func TestLockPoolGrowsUnderContention(t *testing.T) {
	rt, lp := NewRuntime(nil), NewLockPool()
	s := newScope(rt, 0)
	defer s.Close()
	const workers, nest = 8, 4
	recs := make([][]PageRef, workers)
	for w := range recs {
		for i := 0; i < nest; i++ {
			recs[w] = append(recs[w], mustRecord(t, s.Current(), 1, 16))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(recs []PageRef) {
			defer wg.Done()
			owner := new(int)
			for j := 0; j < 200; j++ {
				for _, rec := range recs {
					if err := lp.Enter(lockOf(rt, rec), owner, nil); err != nil {
						t.Error(err)
						return
					}
				}
				for i := len(recs) - 1; i >= 0; i-- {
					if err := lp.Exit(lockOf(rt, recs[i]), owner); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(recs[w])
	}
	wg.Wait()
	if lp.InUse() != 0 {
		t.Fatalf("%d locks still in use", lp.InUse())
	}
	if n, peak := lp.Built(), lp.PeakInUse(); n != peak || n > workers*nest {
		t.Fatalf("built %d locks for a peak of %d (at most %d held at once)", n, peak, workers*nest)
	}
}

func TestReleaseOversizeEarly(t *testing.T) {
	rt := NewRuntime(nil)
	s := newScope(rt, 0)
	defer s.Close()
	s.IterationStart()
	big, _ := s.Current().AllocArray(nil, 0, 1, 4*PageSize)
	small := mustRecord(t, s.Current(), 1, 32)
	before := rt.Stats().BytesInUse
	if !rt.ReleaseOversize(big) {
		t.Fatal("oversize page not released")
	}
	if rt.Stats().BytesInUse >= before {
		t.Fatal("bytes not reclaimed")
	}
	// The body leaves the page table, which every growth copies whole:
	// kept there, it would stay reachable until the store is reset.
	if idx, _ := splitRef(big); (*rt.table.Load())[idx].bytes() != nil {
		t.Fatal("the page table still holds the released body")
	}
	// Double release (iteration end) must be harmless, and small records
	// on shared pages must be refused.
	if rt.ReleaseOversize(small) {
		t.Fatal("released a shared page")
	}
	if rt.ReleaseOversize(0) {
		t.Fatal("released null")
	}
	s.IterationEnd()
	if rt.Stats().PagesLive != 0 {
		t.Fatalf("%d pages live after iteration end", rt.Stats().PagesLive)
	}
}

// TestEarlyReleasedOversizeIsNeverReused frees an oversize array early and
// then acquires oversize arrays of its size, in its own iteration and in
// the next: none may land on its page. Its manager still lists the page
// and releases it again at the iteration's end, so a reuse would put the
// page in two managers, and the second release would free the new owner's
// array. Only an iteration-end release feeds the oversize pool.
func TestEarlyReleasedOversizeIsNeverReused(t *testing.T) {
	rt := NewRuntime(nil)
	s := newScope(rt, 0)
	defer s.Close()
	// Prime the pool: an iteration-end release keeps the body for reuse.
	s.IterationStart()
	first, _ := s.Current().AllocArray(nil, 0, 1, 3*PageSize)
	s.IterationEnd()
	s.IterationStart()
	again, _ := s.Current().AllocArray(nil, 0, 1, 3*PageSize)
	if pa, pb := refPage(first), refPage(again); pa != pb {
		t.Fatalf("an oversize page released at iteration end was not reused: page %d, then %d", pa, pb)
	}
	if !rt.ReleaseOversize(again) {
		t.Fatal("oversize page not released")
	}
	dead := refPage(again)
	for i := 0; i < 3; i++ {
		ref, err := s.Current().AllocArray(nil, 0, 1, 3*PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if refPage(ref) == dead {
			t.Fatalf("acquire %d in the same iteration reused the early-released page %d", i, dead)
		}
	}
	s.IterationEnd()
	s.IterationStart()
	defer s.IterationEnd()
	for i := 0; i < 4; i++ {
		ref, err := s.Current().AllocArray(nil, 0, 1, 3*PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if refPage(ref) == dead {
			t.Fatalf("acquire %d in the next iteration reused the early-released page %d", i, dead)
		}
	}
	if st := rt.Stats(); st.PagesLive != 4 || st.PagesRecycled != 4 {
		t.Fatalf("want the first reuse and the three pages of the iteration before recycled: %+v", st)
	}
}

// refPage is the page-table index of a record.
func refPage(ref PageRef) int {
	idx, _ := splitRef(ref)
	return idx
}

// TestQuotaChargesAnOversizeBodyEveryPage puts a four-page quota on a store
// and asks for an array whose body spans five pages: the acquire fails with
// ErrPageQuota before any body is mapped, and one spanning four pages fits.
// A quota therefore bounds what a single huge array maps, tiered or not.
func TestQuotaChargesAnOversizeBodyEveryPage(t *testing.T) {
	for _, tiered := range []bool{false, true} {
		rt := NewRuntime(nil)
		if tiered {
			if err := rt.EnableTiering(TierConfig{Dir: t.TempDir(), HighWater: 64}); err != nil {
				t.Fatal(err)
			}
		}
		rt.SetPageQuota(4)
		s := newScope(rt, 0)
		// Only finalizers of stores other tests dropped run beside this
		// test, and they only return regions.
		before := region.InUse()
		if _, err := s.Current().AllocArray(nil, 0, 1, 4*PageSize); !errors.Is(err, ErrPageQuota) {
			t.Fatalf("tiered %v: a five-page body under a four-page quota: %v, want ErrPageQuota", tiered, err)
		}
		if st := rt.Stats(); st.PagesCreated != 0 || st.PagesLive != 0 || region.InUse() > before {
			t.Fatalf("tiered %v: the refused acquire mapped something: %+v, regions %d → %d", tiered, st, before, region.InUse())
		}
		if _, err := s.Current().AllocArray(nil, 0, 1, 4*PageSize-ArrayHeader); err != nil {
			t.Fatalf("tiered %v: a four-page body under a four-page quota: %v", tiered, err)
		}
		s.Close()
		if err := rt.CloseTier(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReleasedManagerAllocError(t *testing.T) {
	rt := NewRuntime(nil)
	s := newScope(rt, 0)
	defer s.Close()
	s.IterationStart()
	m := s.Current()
	s.IterationEnd()
	if _, err := m.AllocRecord(nil, 1, 16); !errors.Is(err, ErrReleasedManager) {
		t.Fatalf("err = %v, want ErrReleasedManager", err)
	}
	if _, err := m.AllocArray(nil, 0, 4, 10); !errors.Is(err, ErrReleasedManager) {
		t.Fatalf("array err = %v, want ErrReleasedManager", err)
	}
}

func TestInjectedPageFault(t *testing.T) {
	rt := NewRuntime(nil)
	rt.SetFaultInjector(faults.New(&faults.Config{Seed: 3, PageAt: 1}))
	s := newScope(rt, 0)
	defer s.Close()
	_, err := s.Current().AllocRecord(nil, 1, 16)
	if !errors.Is(err, ErrPageExhausted) {
		t.Fatalf("err = %v, want ErrPageExhausted", err)
	}
	// The schedule was one-shot; the next acquire succeeds and the store
	// is unharmed.
	if _, err := s.Current().AllocRecord(nil, 1, 16); err != nil {
		t.Fatal(err)
	}
	if rt.Stats().PagesLive != 1 {
		t.Fatalf("pages live = %d after one failed and one good acquire", rt.Stats().PagesLive)
	}
}
