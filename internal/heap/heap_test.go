package heap

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/faults"
	"repro/internal/lang"
	"repro/internal/obs"
)

// testHierarchy builds a tiny hierarchy: Object, Node{int val; Node next;
// Node[] kids}.
func testHierarchy(t *testing.T) *lang.Hierarchy {
	t.Helper()
	src := `
class Object { }
class Node {
    int val;
    Node next;
    Node[] kids;
}
`
	f, err := lang.Parse("t.fj", src)
	if err != nil {
		t.Fatal(err)
	}
	h, err := lang.BuildHierarchy(f)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// testArrayTypes is the array type table of the tests' heaps: int[] at
// intArr, Node[] at nodeArr.
var testArrayTypes = lang.NewArrayTypes([]*lang.Type{lang.IntType, lang.ClassType("Node")})

const (
	intArr = iota
	nodeArr
)

func newTestHeap(t *testing.T, size int) (*Heap, *ThreadCtx) {
	h := testHierarchy(t)
	hp := New(Config{HeapSize: size}, h, testArrayTypes)
	tc := hp.RegisterThread()
	tc.EndExternal()
	t.Cleanup(func() {
		tc.BeginExternal()
		hp.UnregisterThread(tc)
	})
	return hp, tc
}

// get and put read and write one typed slot of an object the way production
// code does: Bytes, then the offset from the header on, which the caller
// builds from the header size its access implies (ScalarHeader for a field,
// ArrayHeader for an element). An Addr is an 8-byte reference slot. The heap
// itself exports no per-type accessors.
func get[T int32 | Addr](hp *Heap, a Addr, off int) T {
	b := hp.Bytes(a)[off:]
	var v T
	switch p := any(&v).(type) {
	case *int32:
		*p = int32(binary.LittleEndian.Uint32(b))
	case *Addr:
		*p = Addr(binary.LittleEndian.Uint64(b))
	}
	return v
}

func put[T int32 | Addr](hp *Heap, a Addr, off int, v T) {
	b := hp.Bytes(a)[off:]
	switch v := any(v).(type) {
	case int32:
		binary.LittleEndian.PutUint32(b, uint32(v))
	case Addr:
		binary.LittleEndian.PutUint64(b, uint64(v))
	}
}

// putRef is a mutator's reference store: the slot write, then the barrier.
func putRef(hp *Heap, tc *ThreadCtx, a Addr, off int, v Addr) {
	put(hp, a, off, v)
	hp.Barrier(tc, a+Addr(off), v)
}

func TestAllocAndFieldAccess(t *testing.T) {
	hp, tc := newTestHeap(t, 4<<20)
	node := hp.Hierarchy().Class("Node")
	a, err := hp.AllocObject(tc, node)
	if err != nil {
		t.Fatal(err)
	}
	val := node.FindField("val")
	next := node.FindField("next")
	put[int32](hp, a, ScalarHeader+val.Offset, -42)
	if got := get[int32](hp, a, ScalarHeader+val.Offset); got != -42 {
		t.Fatalf("val = %d", got)
	}
	if get[Addr](hp, a, ScalarHeader+next.Offset) != 0 {
		t.Fatal("fresh ref field not null")
	}
	b, _ := hp.AllocObject(tc, node)
	putRef(hp, tc, a, ScalarHeader+next.Offset, b)
	if get[Addr](hp, a, ScalarHeader+next.Offset) != b {
		t.Fatal("ref field roundtrip failed")
	}
	if hp.ClassOf(a) != node {
		t.Fatal("ClassOf wrong")
	}
}

func TestArrayAlloc(t *testing.T) {
	hp, tc := newTestHeap(t, 4<<20)
	arr, err := hp.AllocArray(tc, intArr, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !hp.IsArray(arr) || ArrayLength(hp.Bytes(arr)) != 100 {
		t.Fatal("bad array header")
	}
	for i := 0; i < 100; i++ {
		put[int32](hp, arr, ArrayHeader+i*4, int32(i*i))
	}
	for i := 0; i < 100; i++ {
		if get[int32](hp, arr, ArrayHeader+i*4) != int32(i*i) {
			t.Fatalf("elem %d wrong", i)
		}
	}
}

func TestHeaderSizes(t *testing.T) {
	// The paper's space argument: 12-byte scalar headers, 16-byte array
	// headers.
	if ScalarHeader != 12 || ArrayHeader != 16 {
		t.Fatalf("headers %d/%d", ScalarHeader, ArrayHeader)
	}
}

// TestGCPreservesRandomGraph is the core GC property test: build a random
// object graph, force collections, verify the graph is intact.
func TestGCPreservesRandomGraph(t *testing.T) {
	check := func(seed int64) bool {
		hp, tc := newTestHeap(t, 8<<20)
		node := hp.Hierarchy().Class("Node")
		val := node.FindField("val")
		next := node.FindField("next")

		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(200)
		roots := make([]Addr, n)
		hp.AddRoots(RootFunc(func(visit func(Addr) Addr) {
			for i := range roots {
				roots[i] = visit(roots[i])
			}
		}))
		//

		// Build chains hanging off each root with known values.
		for i := range roots {
			a, err := hp.AllocObject(tc, node)
			if err != nil {
				return false
			}
			put[int32](hp, a, ScalarHeader+val.Offset, int32(i*1000))
			roots[i] = a
			cur := a
			depth := rng.Intn(10)
			for d := 1; d <= depth; d++ {
				b, err := hp.AllocObject(tc, node)
				if err != nil {
					return false
				}
				put[int32](hp, b, ScalarHeader+val.Offset, int32(i*1000+d))
				putRef(hp, tc, cur, ScalarHeader+next.Offset, b)
				cur = b
			}
			// Allocate garbage in between.
			for g := 0; g < rng.Intn(20); g++ {
				if _, err := hp.AllocObject(tc, node); err != nil {
					return false
				}
			}
		}
		if err := hp.ForceGC(tc, false); err != nil {
			return false
		}
		if err := hp.ForceGC(tc, true); err != nil {
			return false
		}
		// Verify all chains.
		for i := range roots {
			cur := roots[i]
			d := 0
			for cur != 0 {
				if get[int32](hp, cur, ScalarHeader+val.Offset) != int32(i*1000+d) {
					t.Logf("seed %d: chain %d depth %d corrupted", seed, i, d)
					return false
				}
				cur = get[Addr](hp, cur, ScalarHeader+next.Offset)
				d++
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestGCShadowModel interleaves random allocation, pointer mutation, and
// minor/full collections, checking the heap against a Go shadow model
// after every collection. This covers barrier/remset/compaction
// interactions that the chain test cannot reach.
func TestGCShadowModel(t *testing.T) {
	type shadowNode struct {
		val  int32
		next int // shadow index of next, -1 for null
	}
	run := func(seed int64) {
		hp, tc := newTestHeap(t, 8<<20)
		node := hp.Hierarchy().Class("Node")
		valF := node.FindField("val")
		nextF := node.FindField("next")
		rng := rand.New(rand.NewSource(seed))

		var shadow []shadowNode
		var addrs []Addr // addrs[i] mirrors shadow[i]; updated as roots
		hp.AddRoots(RootFunc(func(visit func(Addr) Addr) {
			for i := range addrs {
				addrs[i] = visit(addrs[i])
			}
		}))

		verify := func(step int) {
			for i := range shadow {
				a := addrs[i]
				if get[int32](hp, a, ScalarHeader+valF.Offset) != shadow[i].val {
					t.Fatalf("seed %d step %d: node %d val %d want %d",
						seed, step, i, get[int32](hp, a, ScalarHeader+valF.Offset), shadow[i].val)
				}
				got := get[Addr](hp, a, ScalarHeader+nextF.Offset)
				if shadow[i].next == -1 {
					if got != 0 {
						t.Fatalf("seed %d step %d: node %d next not null", seed, step, i)
					}
				} else if got != addrs[shadow[i].next] {
					t.Fatalf("seed %d step %d: node %d next points wrong", seed, step, i)
				}
			}
		}

		for step := 0; step < 400; step++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3: // allocate a tracked node
				a, err := hp.AllocObject(tc, node)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				v := int32(rng.Int31())
				put[int32](hp, a, ScalarHeader+valF.Offset, v)
				addrs = append(addrs, a)
				shadow = append(shadow, shadowNode{val: v, next: -1})
			case 4, 5: // mutate a next pointer
				if len(shadow) > 1 {
					i := rng.Intn(len(shadow))
					j := rng.Intn(len(shadow))
					putRef(hp, tc, addrs[i], ScalarHeader+nextF.Offset, addrs[j])
					shadow[i].next = j
				}
			case 6: // null out a pointer
				if len(shadow) > 0 {
					i := rng.Intn(len(shadow))
					putRef(hp, tc, addrs[i], ScalarHeader+nextF.Offset, 0)
					shadow[i].next = -1
				}
			case 7: // garbage
				for k := 0; k < rng.Intn(30); k++ {
					if _, err := hp.AllocObject(tc, node); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
				}
			case 8: // minor GC
				if err := hp.ForceGC(tc, false); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				verify(step)
			case 9: // full GC
				if err := hp.ForceGC(tc, true); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				verify(step)
			}
		}
		if err := hp.ForceGC(tc, true); err != nil {
			t.Fatal(err)
		}
		verify(-1)
	}
	for seed := int64(0); seed < 15; seed++ {
		run(seed)
	}
}

func TestParallelAndSerialMarkAgree(t *testing.T) {
	// The same object graph collected with 1 and with 4 mark workers must
	// preserve identical structure and report the same live size.
	build := func(workers int) (*Heap, int64) {
		h := testHierarchy(t)
		hp := New(Config{HeapSize: 8 << 20, GCWorkers: workers}, h, testArrayTypes)
		tc := hp.RegisterThread()
		tc.EndExternal()
		defer func() {
			tc.BeginExternal()
			hp.UnregisterThread(tc)
		}()
		node := h.Class("Node")
		val := node.FindField("val")
		next := node.FindField("next")
		kids := node.FindField("kids")
		roots := make([]Addr, 8)
		hp.AddRoots(RootFunc(func(visit func(Addr) Addr) {
			for i := range roots {
				roots[i] = visit(roots[i])
			}
		}))
		// A dag: chains with cross links and a shared array.
		arr, _ := hp.AllocArray(tc, nodeArr, 16)
		for i := range roots {
			a, _ := hp.AllocObject(tc, node)
			put[int32](hp, a, ScalarHeader+val.Offset, int32(i))
			putRef(hp, tc, a, ScalarHeader+kids.Offset, arr)
			roots[i] = a
			cur := a
			for d := 0; d < 200; d++ {
				b, _ := hp.AllocObject(tc, node)
				put[int32](hp, b, ScalarHeader+val.Offset, int32(i*1000+d))
				putRef(hp, tc, cur, ScalarHeader+next.Offset, b)
				if d%17 == 0 {
					putRef(hp, tc, arr, ArrayHeader+(d%16)*8, b)
				}
				cur = b
			}
		}
		if err := hp.ForceGC(tc, true); err != nil {
			t.Fatal(err)
		}
		// Verify chains.
		for i := range roots {
			cur := roots[i]
			if get[int32](hp, cur, ScalarHeader+val.Offset) != int32(i) {
				t.Fatalf("workers=%d: root %d corrupted", workers, i)
			}
			cur = get[Addr](hp, cur, ScalarHeader+next.Offset)
			d := 0
			for cur != 0 {
				if get[int32](hp, cur, ScalarHeader+val.Offset) != int32(i*1000+d) {
					t.Fatalf("workers=%d: chain %d depth %d corrupted", workers, i, d)
				}
				cur = get[Addr](hp, cur, ScalarHeader+next.Offset)
				d++
			}
			if d != 200 {
				t.Fatalf("workers=%d: chain %d lost nodes (%d)", workers, i, d)
			}
		}
		return hp, hp.Stats().LiveAfterGC
	}
	_, live1 := build(1)
	_, live4 := build(4)
	if live1 != live4 {
		t.Fatalf("live bytes differ: serial %d parallel %d", live1, live4)
	}
}

func TestGCReclaimsGarbage(t *testing.T) {
	hp, tc := newTestHeap(t, 8<<20)
	node := hp.Hierarchy().Class("Node")
	// No roots: everything is garbage.
	for i := 0; i < 100000; i++ {
		if _, err := hp.AllocObject(tc, node); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if err := hp.ForceGC(tc, true); err != nil {
		t.Fatal(err)
	}
	st := hp.Stats()
	if st.LiveAfterGC != 0 {
		t.Fatalf("live after GC = %d, want 0", st.LiveAfterGC)
	}
	if st.MinorGCs+st.FullGCs == 0 {
		t.Fatal("no collections happened")
	}
}

func TestOldToYoungBarrier(t *testing.T) {
	hp, tc := newTestHeap(t, 8<<20)
	node := hp.Hierarchy().Class("Node")
	val := node.FindField("val")
	next := node.FindField("next")
	var root Addr
	hp.AddRoots(RootFunc(func(visit func(Addr) Addr) {
		root = visit(root)
	}))
	a, _ := hp.AllocObject(tc, node)
	root = a
	put[int32](hp, root, ScalarHeader+val.Offset, 7)
	// Promote root to the old generation.
	if err := hp.ForceGC(tc, false); err != nil {
		t.Fatal(err)
	}
	// New young object referenced ONLY from the old object: the write
	// barrier must keep it alive across a minor collection.
	b, _ := hp.AllocObject(tc, node)
	put[int32](hp, b, ScalarHeader+val.Offset, 13)
	putRef(hp, tc, root, ScalarHeader+next.Offset, b)
	if err := hp.ForceGC(tc, false); err != nil {
		t.Fatal(err)
	}
	got := get[Addr](hp, root, ScalarHeader+next.Offset)
	if got == 0 || get[int32](hp, got, ScalarHeader+val.Offset) != 13 {
		t.Fatal("write barrier lost an old->young reference")
	}
}

func TestOutOfMemory(t *testing.T) {
	hp, tc := newTestHeap(t, 2<<20)
	node := hp.Hierarchy().Class("Node")
	kids := node.FindField("kids")
	var root Addr
	hp.AddRoots(RootFunc(func(visit func(Addr) Addr) {
		root = visit(root)
	}))
	a, err := hp.AllocObject(tc, node)
	if err != nil {
		t.Fatal(err)
	}
	root = a
	// Keep a growing live array chain until the heap cannot hold it.
	for i := 0; ; i++ {
		arr, err := hp.AllocArray(tc, nodeArr, 4096)
		if err != nil {
			if err != ErrOutOfMemory {
				t.Fatalf("wrong error: %v", err)
			}
			return
		}
		// Link to keep alive: kids field of a fresh node.
		n, err := hp.AllocObject(tc, node)
		if err != nil {
			if err != ErrOutOfMemory {
				t.Fatalf("wrong error: %v", err)
			}
			return
		}
		putRef(hp, tc, n, ScalarHeader+kids.Offset, arr)
		putRef(hp, tc, n, ScalarHeader+node.FindField("next").Offset, root)
		root = n
		if i > 10000 {
			t.Fatal("never ran out of memory")
		}
	}
}

func TestConcurrentAllocAndGC(t *testing.T) {
	h := testHierarchy(t)
	hp := New(Config{HeapSize: 16 << 20}, h, testArrayTypes)
	node := h.Class("Node")
	val := node.FindField("val")

	const nThreads = 8
	const perThread = 20000
	var wg sync.WaitGroup
	errs := make(chan error, nThreads)
	for i := 0; i < nThreads; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			tc := hp.RegisterThread()
			tc.EndExternal()
			defer func() {
				tc.BeginExternal()
				hp.UnregisterThread(tc)
			}()
			for j := 0; j < perThread; j++ {
				a, err := hp.AllocObject(tc, node)
				if err != nil {
					errs <- err
					return
				}
				put[int32](hp, a, ScalarHeader+val.Offset, int32(id))
				if get[int32](hp, a, ScalarHeader+val.Offset) != int32(id) {
					errs <- ErrOutOfMemory
					return
				}
				tc.Safepoint()
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := hp.Stats()
	if st.AllocObjects != nThreads*perThread {
		t.Fatalf("alloc count %d want %d", st.AllocObjects, nThreads*perThread)
	}
	if st.MinorGCs+st.FullGCs == 0 {
		t.Fatal("expected collections under churn")
	}
}

func TestArrayElementWriteBarrier(t *testing.T) {
	hp, tc := newTestHeap(t, 8<<20)
	node := hp.Hierarchy().Class("Node")
	val := node.FindField("val")
	var root Addr
	hp.AddRoots(RootFunc(func(visit func(Addr) Addr) {
		root = visit(root)
	}))
	arr, _ := hp.AllocArray(tc, nodeArr, 8)
	root = arr
	if err := hp.ForceGC(tc, false); err != nil { // promote the array
		t.Fatal(err)
	}
	arr = root
	young, _ := hp.AllocObject(tc, node)
	put[int32](hp, young, ScalarHeader+val.Offset, 99)
	putRef(hp, tc, arr, ArrayHeader+3*8, young) // old array -> young element
	if err := hp.ForceGC(tc, false); err != nil {
		t.Fatal(err)
	}
	got := get[Addr](hp, root, ArrayHeader+3*8)
	if got == 0 || get[int32](hp, got, ScalarHeader+val.Offset) != 99 {
		t.Fatal("array element barrier lost old->young reference")
	}
}

func TestAllocationCounters(t *testing.T) {
	hp, tc := newTestHeap(t, 8<<20)
	node := hp.Hierarchy().Class("Node")
	for i := 0; i < 7; i++ {
		if _, err := hp.AllocObject(tc, node); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := hp.AllocArray(tc, intArr, 4); err != nil {
			t.Fatal(err)
		}
	}
	tc.FlushStats() // allocation counters batch thread-locally
	if hp.ClassAllocCount(node) != 7 {
		t.Fatalf("class count %d", hp.ClassAllocCount(node))
	}
	if n := hp.ClassAllocCounts()["[]int"]; n != 3 {
		t.Fatalf("array count %d", n)
	}
}

// TestHeapStatsReadTheInstruments checks that the heap keeps one set of
// books: Stats reads allocations off the allocation-size histogram and
// collections and their time off the pause histograms, for a first job,
// after Reset and for a second job, which leaves the first job's registry
// as it was.
func TestHeapStatsReadTheInstruments(t *testing.T) {
	check := func(when string, hp *Heap) Stats {
		t.Helper()
		st, snap := hp.Stats(), hp.Obs().Snapshot()
		for _, c := range []struct {
			field      string
			got, instr int64
		}{
			{"AllocObjects", st.AllocObjects, snap.Histograms[obs.HistAllocSize].Count},
			{"AllocBytes", st.AllocBytes, snap.Histograms[obs.HistAllocSize].Sum},
			{"MinorGCs", st.MinorGCs, snap.Histograms[obs.HistGCPauseMinor].Count},
			{"FullGCs", st.FullGCs, snap.Histograms[obs.HistGCPauseFull].Count},
			{"GCTime", int64(st.GCTime), snap.Histograms[obs.HistGCPause].Sum},
		} {
			if c.got != c.instr {
				t.Errorf("%s: Stats.%s = %d, instrument = %d", when, c.field, c.got, c.instr)
			}
		}
		if n := snap.Histograms[obs.HistGCPause].Count; st.MinorGCs+st.FullGCs != n {
			t.Errorf("%s: %d minor + %d full collections, %d pauses", when, st.MinorGCs, st.FullGCs, n)
		}
		return st
	}
	// A job: 100 Nodes and one int[10], a minor and a full collection.
	job := func(hp *Heap) {
		tc := hp.RegisterThread()
		tc.EndExternal()
		node := hp.Hierarchy().Class("Node")
		for i := 0; i < 100; i++ {
			if _, err := hp.AllocObject(tc, node); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := hp.AllocArray(tc, intArr, 10); err != nil {
			t.Fatal(err)
		}
		for _, full := range []bool{false, true} {
			if err := hp.ForceGC(tc, full); err != nil {
				t.Fatal(err)
			}
		}
		hp.UnregisterThread(tc)
	}

	hp := New(Config{HeapSize: 8 << 20}, testHierarchy(t), testArrayTypes)
	job(hp)
	first := check("first job", hp)
	bytes := int64(100*roundUp8(ScalarHeader+hp.Hierarchy().Class("Node").BodySize) + roundUp8(ArrayHeader+10*4))
	if first.AllocObjects != 101 || first.AllocBytes != bytes || first.MinorGCs != 1 || first.FullGCs != 1 || first.GCTime <= 0 {
		t.Fatalf("first job: %+v, want 101 objects of %d bytes, one minor and one full collection", first, bytes)
	}
	reg := hp.Obs()
	if err := hp.Reset(obs.NewRegistry(), nil); err != nil {
		t.Fatal(err)
	}
	if st := check("after reset", hp); st.AllocObjects != 0 || st.AllocBytes != 0 || st.MinorGCs != 0 || st.FullGCs != 0 || st.GCTime != 0 {
		t.Fatalf("Reset kept the previous job's counts: %+v", st)
	}
	job(hp)
	second := check("second job", hp)
	if second.AllocObjects != first.AllocObjects || second.AllocBytes != first.AllocBytes || second.MinorGCs != 1 || second.FullGCs != 1 {
		t.Fatalf("second job: %+v, first: %+v", second, first)
	}
	if got := reg.Snapshot().Histograms[obs.HistAllocSize].Count; got != first.AllocObjects {
		t.Fatalf("second job moved the first job's registry: %d allocations, want %d", got, first.AllocObjects)
	}
}

// TestResetRewindsTheOldGeneration: a reused heap places its first
// old-generation object where a fresh heap would.
func TestResetRewindsTheOldGeneration(t *testing.T) {
	hp := New(Config{HeapSize: 8 << 20}, testHierarchy(t), testArrayTypes)
	// large allocates past half a TLAB, which goes straight to the old
	// generation, on a thread of its own so the heap is quiescent between
	// steps.
	large := func() Addr {
		t.Helper()
		tc := hp.RegisterThread()
		tc.EndExternal()
		a, err := hp.AllocArray(tc, intArr, tlabSize)
		if err != nil {
			t.Fatal(err)
		}
		tc.BeginExternal()
		hp.UnregisterThread(tc)
		return a
	}
	if a := large(); a != hp.oldBase {
		t.Fatalf("first large array at %#x, want the old base %#x", a, hp.oldBase)
	}
	if a := large(); a == hp.oldBase {
		t.Fatal("second large array reused the old base")
	}
	if err := hp.Reset(nil, nil); err != nil {
		t.Fatal(err)
	}
	if a := large(); a != hp.oldBase {
		t.Fatalf("after reset the large array is at %#x, want the rewound old base %#x", a, hp.oldBase)
	}
}

func TestPeakTracksUsage(t *testing.T) {
	hp, tc := newTestHeap(t, 8<<20)
	node := hp.Hierarchy().Class("Node")
	for i := 0; i < 1000; i++ {
		if _, err := hp.AllocObject(tc, node); err != nil {
			t.Fatal(err)
		}
	}
	if hp.Stats().PeakUsed == 0 {
		t.Fatal("peak usage not tracked")
	}
}

func TestInjectedAllocFault(t *testing.T) {
	h := testHierarchy(t)
	inj := faults.New(&faults.Config{Seed: 7, AllocAt: 1})
	hp := New(Config{HeapSize: 4 << 20, Faults: inj}, h, testArrayTypes)
	tc := hp.RegisterThread()
	tc.EndExternal()
	defer func() {
		tc.BeginExternal()
		hp.UnregisterThread(tc)
	}()
	node := hp.Hierarchy().Class("Node")
	// The first slow-path allocation is the scheduled fault: it must fail
	// with the same sentinel a real exhaustion produces.
	_, err := hp.AllocObject(tc, node)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	// A one-shot schedule leaves the heap fully usable afterwards.
	if _, err := hp.AllocObject(tc, node); err != nil {
		t.Fatal(err)
	}
	if got := inj.Fires()[string(faults.HeapAlloc)]; got != 1 {
		t.Fatalf("injector recorded %d heap.alloc fires, want 1", got)
	}
}
