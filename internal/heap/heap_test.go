package heap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
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
	return newTestHeapOn(t, size, 0)
}

// newTestHeapOn is newTestHeap with workers GC workers (0: the default).
func newTestHeapOn(t *testing.T, size, workers int) (*Heap, *ThreadCtx) {
	h := testHierarchy(t)
	hp := New(Config{HeapSize: size, GCWorkers: workers}, h, testArrayTypes)
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
	run := func(t *testing.T, size, workers int, seed int64) {
		hp, tc := newTestHeapOn(t, size, workers)
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
	// The second size is not a multiple of 8: the generations' bounds
	// must still put every object, and so its mark bit, on an 8-byte
	// boundary.
	for _, size := range []int{8 << 20, 8<<20 + 3} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("size=%d,workers=%d", size, workers), func(t *testing.T) {
				for seed := int64(0); seed < 15; seed++ {
					run(t, size, workers, seed)
				}
			})
		}
	}
}

// TestCollectorsAgreeAcrossWorkers runs one program of allocations,
// stores and collections on 1, 2 and 4 GC workers. Promotion order and so
// addresses differ with the workers, but after every minor and every full
// collection the graph reachable from the roots must be the same graph,
// and the collections must count the same promotions and live bytes. The
// graph spans many compaction chunks in both generations, with garbage
// between the live objects and old->young edges through the barrier.
func TestCollectorsAgreeAcrossWorkers(t *testing.T) {
	type outcome struct {
		graphs             [][]int64
		promoted, liveFull int64
	}
	run := func(workers int) outcome {
		hp, tc := newTestHeapOn(t, 8<<20, workers)
		node := hp.Hierarchy().Class("Node")
		val := node.FindField("val")
		next := node.FindField("next")
		kids := node.FindField("kids")
		roots := make([]Addr, 16)
		hp.AddRoots(RootFunc(func(visit func(Addr) Addr) {
			for i := range roots {
				roots[i] = visit(roots[i])
			}
		}))
		alloc := func() Addr {
			a, err := hp.AllocObject(tc, node)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			return a
		}
		// grow hangs n nodes off the front of every root's chain, sharing
		// a Node[] every 50 nodes and leaving garbage between them.
		grow := func(round, n int) {
			for i := range roots {
				for d := 0; d < n; d++ {
					b := alloc()
					put[int32](hp, b, ScalarHeader+val.Offset, int32(round<<20|i<<12|d))
					putRef(hp, tc, b, ScalarHeader+next.Offset, roots[i])
					if d%50 == 0 {
						arr, err := hp.AllocArray(tc, nodeArr, 8)
						if err != nil {
							t.Fatal(err)
						}
						putRef(hp, tc, arr, ArrayHeader+(d%8)*8, roots[i])
						putRef(hp, tc, b, ScalarHeader+kids.Offset, arr)
					}
					roots[i] = b
					for g := 0; g < d%3; g++ {
						alloc()
					}
				}
			}
		}
		var out outcome
		collect := func(full bool) {
			if err := hp.ForceGC(tc, full); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			out.graphs = append(out.graphs, canonicalGraph(hp, roots))
		}
		grow(0, 1500)
		collect(false)
		// Old->young edges: every old chain head gets a young tail.
		for i := range roots {
			b := alloc()
			put[int32](hp, b, ScalarHeader+val.Offset, int32(-i))
			arr, err := hp.AllocArray(tc, nodeArr, 2)
			if err != nil {
				t.Fatal(err)
			}
			putRef(hp, tc, arr, ArrayHeader, b)
			putRef(hp, tc, roots[i], ScalarHeader+kids.Offset, arr)
		}
		grow(1, 400)
		collect(false)
		// Cut every other chain in half: old garbage for the compaction.
		for i := 0; i < len(roots); i += 2 {
			c := roots[i]
			for d := 0; d < 900; d++ {
				c = get[Addr](hp, c, ScalarHeader+next.Offset)
			}
			putRef(hp, tc, c, ScalarHeader+next.Offset, 0)
		}
		grow(2, 300)
		collect(true)
		grow(3, 200)
		collect(false)
		collect(true)
		st := hp.Stats()
		out.promoted, out.liveFull = st.Promoted, st.LiveAfterGC
		return out
	}
	want := run(1)
	if want.promoted == 0 || want.liveFull < 8*chunkBytes {
		t.Fatalf("promoted %d objects and kept %d live bytes: the program exercises too little", want.promoted, want.liveFull)
	}
	for _, workers := range []int{2, 4} {
		got := run(workers)
		for i := range want.graphs {
			if !slices.Equal(got.graphs[i], want.graphs[i]) {
				t.Fatalf("collection %d: the graph on %d workers differs from the graph on 1", i, workers)
			}
		}
		if got.promoted != want.promoted || got.liveFull != want.liveFull {
			t.Fatalf("%d workers promoted %d and kept %d live bytes; 1 worker promoted %d and kept %d",
				workers, got.promoted, got.liveFull, want.promoted, want.liveFull)
		}
	}
}

// canonicalGraph encodes the graph reachable from roots without its
// addresses: objects are numbered in breadth-first order, and each is
// written as its type word, its int field or array length, and the numbers
// of the objects its reference slots name (-1 for null).
func canonicalGraph(hp *Heap, roots []Addr) []int64 {
	ids := map[Addr]int64{}
	var queue []Addr
	id := func(a Addr) int64 {
		if a == 0 {
			return -1
		}
		n, ok := ids[a]
		if !ok {
			n = int64(len(ids))
			ids[a] = n
			queue = append(queue, a)
		}
		return n
	}
	var enc []int64
	for _, r := range roots {
		enc = append(enc, id(r))
	}
	for len(queue) > 0 {
		a := queue[0]
		queue = queue[1:]
		b := hp.Bytes(a)
		enc = append(enc, int64(binary.LittleEndian.Uint32(b)))
		if hp.IsArray(a) {
			enc = append(enc, int64(ArrayLength(b)))
		} else {
			enc = append(enc, int64(get[int32](hp, a, ScalarHeader+hp.ClassOf(a).FindField("val").Offset)))
		}
		hp.refSlots(a, func(slot Addr) {
			enc = append(enc, id(Addr(binary.LittleEndian.Uint64(hp.arena[slot:]))))
		})
	}
	return enc
}

// TestFailedFullCollectionLeavesTheHeapAlone fills the old generation with
// rooted large arrays and the nursery with a rooted chain until the live
// set no longer fits: the full collection fails with ErrOutOfMemory before
// it writes anything, so every rooted object still reads as it was written,
// and once half the arrays are dropped the next full collection succeeds.
func TestFailedFullCollectionLeavesTheHeapAlone(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			hp, tc := newTestHeapOn(t, 2<<20, workers)
			node := hp.Hierarchy().Class("Node")
			val := node.FindField("val")
			next := node.FindField("next")
			arrays := make([]Addr, 40)
			var chain Addr
			hp.AddRoots(RootFunc(func(visit func(Addr) Addr) {
				for i := range arrays {
					arrays[i] = visit(arrays[i])
				}
				chain = visit(chain)
			}))
			const elems = 8192 // 32 KiB: large, so allocated in the old generation
			for i := range arrays {
				a, err := hp.AllocArray(tc, intArr, elems)
				if err != nil {
					t.Fatal(err)
				}
				for j := 0; j < elems; j += 97 {
					put[int32](hp, a, ArrayHeader+4*j, int32(i*elems+j))
				}
				arrays[i] = a
			}
			const nodes = 10000 // 400 KB, within the 512 KiB nursery
			for d := 0; d < nodes; d++ {
				b, err := hp.AllocObject(tc, node)
				if err != nil {
					t.Fatal(err)
				}
				put[int32](hp, b, ScalarHeader+val.Offset, int32(d))
				putRef(hp, tc, b, ScalarHeader+next.Offset, chain)
				chain = b
			}
			check := func(when string) {
				t.Helper()
				for i, a := range arrays {
					if a == 0 {
						continue
					}
					for j := 0; j < elems; j += 97 {
						if got := get[int32](hp, a, ArrayHeader+4*j); got != int32(i*elems+j) {
							t.Fatalf("%s: array %d element %d = %d", when, i, j, got)
						}
					}
				}
				d := nodes
				for c := chain; c != 0; c = get[Addr](hp, c, ScalarHeader+next.Offset) {
					d--
					if got := get[int32](hp, c, ScalarHeader+val.Offset); got != int32(d) {
						t.Fatalf("%s: chain node %d reads %d", when, d, got)
					}
				}
				if d != 0 {
					t.Fatalf("%s: chain lost %d nodes", when, d)
				}
			}
			if err := hp.ForceGC(tc, true); !errors.Is(err, ErrOutOfMemory) {
				t.Fatalf("full collection of an oversized live set: %v, want ErrOutOfMemory", err)
			}
			check("after the failed collection")
			for i := 0; i < len(arrays); i += 2 {
				arrays[i] = 0
			}
			if err := hp.ForceGC(tc, true); err != nil {
				t.Fatal(err)
			}
			check("after the next full collection")
		})
	}
}

// TestScavengeNarrowsToTheRoom fills half a 4 MiB heap's nursery with
// rooted nodes and sets the old generation's free space against it. With
// room for the used nursery plus half of four workers' promotion slack,
// a minor request on four workers scavenges on two and every node
// survives; with room for less than the used nursery, it collects in full
// on any number of workers.
func TestScavengeNarrowsToTheRoom(t *testing.T) {
	for _, c := range []struct {
		workers, wantScavengers int
		extra                   int64 // free old bytes beyond the used nursery
		wantMinor, wantFull     int64
	}{
		{1, 1, promotionSlack(4) / 2, 1, 0},
		{4, 2, promotionSlack(4) / 2, 1, 0},
		{16, 2, promotionSlack(4) / 2, 1, 0},
		{1, 0, -tlabSize, 0, 1},
		{4, 0, -tlabSize, 0, 1},
	} {
		t.Run(fmt.Sprintf("workers=%d,extra=%d", c.workers, c.extra), func(t *testing.T) {
			hp, tc := newTestHeapOn(t, 4<<20, c.workers)
			node := hp.Hierarchy().Class("Node")
			val := node.FindField("val")
			var nodes []Addr
			hp.AddRoots(RootFunc(func(visit func(Addr) Addr) {
				for i := range nodes {
					nodes[i] = visit(nodes[i])
				}
			}))
			for hp.youngPos-hp.oldEnd < (hp.youngEnd-hp.oldEnd)/2 {
				a, err := hp.AllocObject(tc, node)
				if err != nil {
					t.Fatal(err)
				}
				put[int32](hp, a, ScalarHeader+val.Offset, int32(len(nodes)))
				nodes = append(nodes, a)
			}
			used := int64(hp.youngPos - hp.oldEnd)
			filler := int64(hp.oldEnd-hp.oldPos) - used - c.extra
			if _, err := hp.AllocArray(tc, intArr, int(filler-ArrayHeader)/4); err != nil {
				t.Fatal(err)
			}
			if n := hp.scavengeWorkers(); n != c.wantScavengers {
				t.Fatalf("%d free old bytes for %d used nursery bytes give %d scavenging workers, want %d",
					hp.oldEnd-hp.oldPos, used, n, c.wantScavengers)
			}
			if err := hp.ForceGC(tc, false); err != nil {
				t.Fatal(err)
			}
			if st := hp.Stats(); st.MinorGCs != c.wantMinor || st.FullGCs != c.wantFull {
				t.Fatalf("a minor request ran %d minor and %d full collections, want %d and %d",
					st.MinorGCs, st.FullGCs, c.wantMinor, c.wantFull)
			}
			if hp.oldPos > hp.oldEnd {
				t.Fatalf("the old generation's cursor %#x ran past its end %#x", hp.oldPos, hp.oldEnd)
			}
			for i, a := range nodes {
				if got := get[int32](hp, a, ScalarHeader+val.Offset); got != int32(i) || hp.inYoung(a) {
					t.Fatalf("node %d at %#x reads %d", i, a, got)
				}
			}
		})
	}
}

// TestPromotionFitsTheSlack scavenges a nursery packed with live objects,
// on four workers, into an old generation with exactly the used nursery
// plus the promotion slack free: the promotion cursor must stay inside the
// old generation and every object must survive. The roots name arrays of
// about 3.3 KiB first, which a 16 KiB buffer holds four of before it
// retires a 3 KiB tail, and then the nodes that fill each TLAB's tail, so
// the nursery's used bytes are nearly all promoted.
func TestPromotionFitsTheSlack(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		hp, tc := newTestHeapOn(t, 4<<20, 4)
		node := hp.Hierarchy().Class("Node")
		val := node.FindField("val")
		var arrays, nodes []Addr
		hp.AddRoots(RootFunc(func(visit func(Addr) Addr) {
			for _, rs := range [][]Addr{arrays, nodes} {
				for i := range rs {
					rs[i] = visit(rs[i])
				}
			}
		}))
		rng := rand.New(rand.NewSource(seed))
		nodeSize := hp.classes[node.ID].size
		for hp.youngEnd-hp.youngPos >= tlabSize || tc.tlab.end-tc.tlab.pos >= nodeSize {
			n := 830 + rng.Intn(20)
			if rest := tc.tlab.end - tc.tlab.pos; rest >= nodeSize && rest < Addr(roundUp8(ArrayHeader+4*n)) {
				a, err := hp.AllocObject(tc, node)
				if err != nil {
					t.Fatal(err)
				}
				put[int32](hp, a, ScalarHeader+val.Offset, int32(len(nodes)))
				nodes = append(nodes, a)
				continue
			}
			a, err := hp.AllocArray(tc, intArr, n)
			if err != nil {
				t.Fatal(err)
			}
			put[int32](hp, a, ArrayHeader, int32(len(arrays)))
			arrays = append(arrays, a)
		}
		used := int64(hp.youngPos - hp.oldEnd)
		filler := int64(hp.oldEnd-hp.oldPos) - used - promotionSlack(4)
		if _, err := hp.AllocArray(tc, intArr, int(filler-ArrayHeader)/4); err != nil {
			t.Fatal(err)
		}
		if n := hp.scavengeWorkers(); n != 4 {
			t.Fatalf("seed %d: the scavenge runs on %d workers, want 4", seed, n)
		}
		if err := hp.ForceGC(tc, false); err != nil {
			t.Fatal(err)
		}
		if st := hp.Stats(); st.MinorGCs != 1 || st.FullGCs != 0 {
			t.Fatalf("seed %d: %d minor and %d full collections, want one minor", seed, st.MinorGCs, st.FullGCs)
		}
		if top := hp.promoteTop.Load(); top > hp.oldEnd {
			t.Fatalf("seed %d: promotion cursor %#x ran past the old generation's end %#x", seed, top, hp.oldEnd)
		}
		for _, c := range []struct {
			rs  []Addr
			off int
		}{{arrays, ArrayHeader}, {nodes, ScalarHeader + val.Offset}} {
			for i, a := range c.rs {
				if got := get[int32](hp, a, c.off); got != int32(i) || hp.inYoung(a) {
					t.Fatalf("seed %d: root %d at %#x reads %d", seed, i, a, got)
				}
			}
		}
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
			{"Promoted", st.Promoted, snap.Counters[obs.CtrPromoted]},
			{"MarkedNodes", st.MarkedNodes, snap.Counters[obs.CtrMarked]},
			{"PeakUsed", st.PeakUsed, snap.Gauges[obs.GaugeHeapUsed+".hw"]},
			{"LiveAfterGC", st.LiveAfterGC, snap.Gauges[obs.GaugeLiveAfterGC]},
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
	if st := check("after reset", hp); st != (Stats{HeapSize: st.HeapSize}) {
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
