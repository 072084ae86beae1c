package heap

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/region"
)

// GC torture test: several mutator goroutines churn linked object graphs
// (lists with array fan-out, old->young edges through the write barrier)
// while a collector goroutine forces minor and full collections as fast as
// it can. After every safepoint crossing each worker re-walks its graph and
// verifies the checksum, so any collection that loses an edge, misdirects a
// forwarding pointer, or misses a remembered slot fails immediately and
// locally. Each round also fans in: four
// arrays name the same list nodes in the same order, so GC workers scanning
// them claim the same nursery objects at once, and an object copied twice
// shows as arrays that no longer agree.
//
// CI runs this under -race as its own step: the thread-local allocation
// batching and the barrier's bits, set by every mutator in one shared
// bitmap, are exactly the kind of state a racy update would corrupt.
//
// Root visibility is safe without extra locking for the same reason as in
// the other concurrent tests: workers publish w.head/w.anchor by parking
// at a safepoint (BeginExternal locks sp.mu), and the collector only
// visits roots once every thread is parked, so the sp.mu handshake orders
// the writes before the visit.

const (
	tortureWorkers = 4
	tortureRounds  = 60
	tortureList    = 400
	tortureMinGCs  = 14 // workers churn extra rounds until this many ran
	tortureFans    = 4
	tortureStride  = 2 // every other list node is in every fan array
	tortureFanLen  = tortureList / tortureStride
)

type tortureWorker struct {
	id     int
	head   Addr // current young list (GC root)
	anchor Addr // long-lived node carrying old->young edges (GC root)
	fans   Addr // Node[] of the round's fan arrays (GC root)
}

func TestGCTorture(t *testing.T) { gcTorture(t) }

// TestGCTortureOnPoisonedArena runs the torture on an arena and mark bitmap
// that start out filled with 0xAA: the heap must read no byte it did not
// write or zero, so every checksum holds as it does on zeroed memory.
func TestGCTortureOnPoisonedArena(t *testing.T) {
	defer region.Poison(0xAA)()
	gcTorture(t)
}

func gcTorture(t *testing.T) {
	rounds := tortureRounds
	if testing.Short() {
		rounds = 15
	}
	h := testHierarchy(t)
	hp := New(Config{HeapSize: 48 << 20, GCWorkers: 4}, h, testArrayTypes)
	node := h.Class("Node")
	val := node.FindField("val")
	next := node.FindField("next")
	kids := node.FindField("kids")

	workers := make([]*tortureWorker, tortureWorkers)
	for i := range workers {
		workers[i] = &tortureWorker{id: i}
		w := workers[i]
		hp.AddRoots(RootFunc(func(visit func(Addr) Addr) {
			w.head = visit(w.head)
			w.anchor = visit(w.anchor)
			w.fans = visit(w.fans)
		}))
	}

	// alloc retries once after a forced full collection, so transient
	// nursery exhaustion under GC pressure is not a test failure.
	alloc := func(tc *ThreadCtx) (Addr, error) {
		a, err := hp.AllocObject(tc, node)
		if errors.Is(err, ErrOutOfMemory) {
			if err = hp.Collect(tc, true); err == nil {
				a, err = hp.AllocObject(tc, node)
			}
		}
		return a, err
	}

	var stop atomic.Bool
	var collector sync.WaitGroup
	collector.Add(1)
	go func() {
		defer collector.Done()
		tc := hp.RegisterThread()
		defer hp.UnregisterThread(tc)
		full := false
		for !stop.Load() {
			if err := hp.Collect(tc, full); err != nil {
				t.Errorf("forced GC: %v", err)
				return
			}
			full = !full
			// Yield between collections so mutators re-enter the running
			// state; a zero-delay loop would re-request the safepoint
			// before parked threads wake.
			time.Sleep(50 * time.Microsecond)
		}
	}()

	var mutators sync.WaitGroup
	for _, w := range workers {
		w := w
		mutators.Add(1)
		go func() {
			defer mutators.Done()
			tc := hp.RegisterThread()
			tc.EndExternal()
			defer func() {
				tc.BeginExternal()
				hp.UnregisterThread(tc)
			}()
			// The long-lived anchor; forced full GCs promote it, turning
			// every later anchor.next store into an old->young edge.
			a, err := alloc(tc)
			if err != nil {
				t.Error(err)
				return
			}
			put[int32](hp, a, ScalarHeader+val.Offset, int32(w.id))
			w.anchor = a
			// Run the planned rounds, then keep churning (bounded) until
			// the collector has met its quota: collections are much slower
			// under -race, and a torture run with two GCs proves nothing.
			gcs := func() int64 {
				st := hp.Stats()
				return st.MinorGCs + st.FullGCs
			}
			for round := 0; (round < rounds || gcs() < tortureMinGCs) &&
				round < rounds*200 && !t.Failed(); round++ {
				// Build a fresh list; the previous round's becomes garbage.
				want := int64(0)
				w.head = 0
				for i := 0; i < tortureList; i++ {
					n, err := alloc(tc)
					if err != nil {
						t.Error(err)
						return
					}
					v := int32(w.id*1_000_000 + round*1000 + i)
					put[int32](hp, n, ScalarHeader+val.Offset, v)
					putRef(hp, n, ScalarHeader+next.Offset, w.head)
					w.head = n
					want += int64(v)
					if i%64 == 0 {
						// Array fan-out pointing back into the list, plus
						// an old->young edge through the anchor: exactly
						// the stores the barrier remembers.
						arr, err := hp.AllocArray(tc, nodeArr, 4)
						if err != nil {
							t.Error(err)
							return
						}
						putRef(hp, arr, ArrayHeader, n)
						putRef(hp, n, ScalarHeader+kids.Offset, arr)
						putRef(hp, w.anchor, ScalarHeader+next.Offset, n)
						tc.Safepoint()
					}
				}
				// The fan-in. Allocate first (that may collect), then fill
				// with no allocation in between, so the walk's addresses hold.
				if w.fans, err = hp.AllocArray(tc, nodeArr, tortureFans); err != nil {
					t.Error(err)
					return
				}
				for k := 0; k < tortureFans; k++ {
					fan, err := hp.AllocArray(tc, nodeArr, tortureFanLen)
					if err != nil {
						t.Error(err)
						return
					}
					putRef(hp, w.fans, ArrayHeader+8*k, fan)
				}
				i := 0
				for c := w.head; c != 0; c = get[Addr](hp, c, ScalarHeader+next.Offset) {
					if i%tortureStride == 0 {
						for k := 0; k < tortureFans; k++ {
							putRef(hp, get[Addr](hp, w.fans, ArrayHeader+8*k), ArrayHeader+8*(i/tortureStride), c)
						}
					}
					i++
				}
				tc.Safepoint()
				// Verify after the safepoint: everything may have moved.
				got := int64(0)
				cnt := 0
				for c := w.head; c != 0; c = get[Addr](hp, c, ScalarHeader+next.Offset) {
					got += int64(get[int32](hp, c, ScalarHeader+val.Offset))
					if arr := get[Addr](hp, c, ScalarHeader+kids.Offset); arr != 0 {
						if get[Addr](hp, arr, ArrayHeader) != c {
							t.Errorf("worker %d round %d: kids[0] no longer points at owner", w.id, round)
							return
						}
					}
					if cnt%tortureStride == 0 {
						for k := 0; k < tortureFans; k++ {
							fan := get[Addr](hp, w.fans, ArrayHeader+8*k)
							if get[Addr](hp, fan, ArrayHeader+8*(cnt/tortureStride)) != c {
								t.Errorf("worker %d round %d: fan %d slot %d no longer names list node %d",
									w.id, round, k, cnt/tortureStride, cnt)
								return
							}
						}
					}
					cnt++
				}
				if got != want || cnt != tortureList {
					t.Errorf("worker %d round %d: checksum %d (want %d), len %d (want %d)",
						w.id, round, got, want, cnt, tortureList)
					return
				}
				if get[int32](hp, w.anchor, ScalarHeader+val.Offset) != int32(w.id) {
					t.Errorf("worker %d round %d: anchor payload corrupted", w.id, round)
					return
				}
				// The anchor's old->young edge must survive the write
				// barrier across any number of collections.
				if get[Addr](hp, w.anchor, ScalarHeader+next.Offset) == 0 {
					t.Errorf("worker %d round %d: anchor lost its old->young edge", w.id, round)
					return
				}
			}
		}()
	}

	mutators.Wait()
	stop.Store(true)
	collector.Wait()

	st := hp.Stats()
	t.Logf("torture ran %d minor + %d full collections", st.MinorGCs, st.FullGCs)
	if st.MinorGCs+st.FullGCs < 10 {
		t.Fatalf("only %d collections ran; torture was not tortuous", st.MinorGCs+st.FullGCs)
	}
}

// TestRegisterDuringCollection pins the thread-list handshake: a stopped
// world keeps mutators off the heap, not off the list, so external threads
// may register while the collector walks it (invalidateTLABs) and wait in
// UnregisterThread for the stop to end. Before the walks took sp.mu this
// died of "concurrent map iteration and map write" within a few hundred
// iterations; CI runs it under -race.
func TestRegisterDuringCollection(t *testing.T) {
	hp := New(Config{HeapSize: 4 << 20}, testHierarchy(t), testArrayTypes)
	const nRegistrars = 3
	iters := 5000
	if testing.Short() {
		iters = 1000
	}

	var stop atomic.Bool
	var collector sync.WaitGroup
	collector.Add(1)
	go func() {
		defer collector.Done()
		tc := hp.RegisterThread()
		defer hp.UnregisterThread(tc)
		for full := false; !stop.Load(); full = !full {
			if err := hp.Collect(tc, full); err != nil {
				t.Errorf("forced GC: %v", err)
				return
			}
		}
	}()

	var registrars sync.WaitGroup
	for i := 0; i < nRegistrars; i++ {
		registrars.Add(1)
		go func() {
			defer registrars.Done()
			for j := 0; j < iters; j++ {
				hp.UnregisterThread(hp.RegisterThread())
			}
		}()
	}
	registrars.Wait()
	stop.Store(true)
	collector.Wait()

	st := hp.Stats()
	if st.MinorGCs == 0 || st.FullGCs == 0 {
		t.Fatalf("collector ran %d minor + %d full collections; want both kinds", st.MinorGCs, st.FullGCs)
	}
}
