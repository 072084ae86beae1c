package heap

import "testing"

// newLifetimeHeap builds a heap that pretenures the marked sites (index =
// site ID) and registers one running thread on it.
func newLifetimeHeap(t *testing.T, size int, pretenure []bool) (*Heap, *ThreadCtx) {
	t.Helper()
	h := testHierarchy(t)
	hp := New(Config{HeapSize: size, Lifetimes: LifetimeConfig{Pretenure: pretenure}}, h, testArrayTypes)
	tc := hp.RegisterThread()
	tc.EndExternal()
	t.Cleanup(func() {
		tc.BeginExternal()
		hp.UnregisterThread(tc)
	})
	return hp, tc
}

func TestPretenuredSiteAllocatesOld(t *testing.T) {
	hp, tc := newLifetimeHeap(t, 16<<20, []bool{false, true, false})
	node := hp.Hierarchy().Class("Node")
	a, err := hp.AllocObject(tc, node, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !hp.inOld(a) {
		t.Fatalf("long-lived site allocated at %#x, not in old gen", a)
	}
	// Unsited, unmarked and out-of-range sites all go young.
	for _, site := range []int32{0, 2, 3, -1} {
		b, _ := hp.AllocObject(tc, node, site)
		if !hp.inYoung(b) {
			t.Fatalf("site %d allocated at %#x, not in nursery", site, b)
		}
	}
	tc.flushAllocStats()
	if got := hp.cLifePretenured.Load(); got != 1 {
		t.Fatalf("pretenured counter = %d, want 1", got)
	}
}

func TestResetRestoresStaticClassification(t *testing.T) {
	h := testHierarchy(t)
	hp := New(Config{HeapSize: 16 << 20, Lifetimes: LifetimeConfig{Pretenure: []bool{false, false, true}}}, h, testArrayTypes)
	// allocSite2 allocates one Node at site 2 on a thread of its own, so
	// the heap is quiescent (and the counters flushed) between steps.
	allocSite2 := func() Addr {
		t.Helper()
		tc := hp.RegisterThread()
		tc.EndExternal()
		a, err := hp.AllocObject(tc, h.Class("Node"), 2)
		if err != nil {
			t.Fatal(err)
		}
		tc.BeginExternal()
		hp.UnregisterThread(tc)
		return a
	}
	allocSite2()
	if got := hp.cLifePretenured.Load(); got != 1 {
		t.Fatalf("pretenured = %d before reset, want 1", got)
	}
	if err := hp.Reset(nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := hp.cLifePretenured.Load(); got != 0 {
		t.Fatalf("counters not rebound on reset: pretenured = %d", got)
	}
	// Reset keeps the set; SetLifetimes replaces it for the next job.
	if a := allocSite2(); a != hp.oldBase {
		t.Fatalf("after reset site 2 allocated at %#x, want the rewound old base %#x", a, hp.oldBase)
	}
	hp.SetLifetimes(LifetimeConfig{})
	if a := allocSite2(); !hp.inYoung(a) {
		t.Fatalf("with the set cleared site 2 allocated at %#x, want nursery", a)
	}
}
