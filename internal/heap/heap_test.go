package heap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/faults"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/region"
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
func putRef(hp *Heap, a Addr, off int, v Addr) {
	put(hp, a, off, v)
	hp.Barrier(a+Addr(off), v)
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
	putRef(hp, a, ScalarHeader+next.Offset, b)
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
				putRef(hp, cur, ScalarHeader+next.Offset, b)
				cur = b
			}
			// Allocate garbage in between.
			for g := 0; g < rng.Intn(20); g++ {
				if _, err := hp.AllocObject(tc, node); err != nil {
					return false
				}
			}
		}
		if err := hp.Collect(tc, false); err != nil {
			return false
		}
		if err := hp.Collect(tc, true); err != nil {
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
// after every collection. This covers barrier/remembered-set/compaction
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
					putRef(hp, addrs[i], ScalarHeader+nextF.Offset, addrs[j])
					shadow[i].next = j
				}
			case 6: // null out a pointer
				if len(shadow) > 0 {
					i := rng.Intn(len(shadow))
					putRef(hp, addrs[i], ScalarHeader+nextF.Offset, 0)
					shadow[i].next = -1
				}
			case 7: // garbage
				for k := 0; k < rng.Intn(30); k++ {
					if _, err := hp.AllocObject(tc, node); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
				}
			case 8: // minor GC
				if err := hp.Collect(tc, false); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				verify(step)
			case 9: // full GC
				if err := hp.Collect(tc, true); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				verify(step)
			}
		}
		if err := hp.Collect(tc, true); err != nil {
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
					putRef(hp, b, ScalarHeader+next.Offset, roots[i])
					if d%50 == 0 {
						arr, err := hp.AllocArray(tc, nodeArr, 8)
						if err != nil {
							t.Fatal(err)
						}
						putRef(hp, arr, ArrayHeader+(d%8)*8, roots[i])
						putRef(hp, b, ScalarHeader+kids.Offset, arr)
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
			if err := hp.Collect(tc, full); err != nil {
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
			putRef(hp, arr, ArrayHeader, b)
			putRef(hp, roots[i], ScalarHeader+kids.Offset, arr)
		}
		grow(1, 400)
		collect(false)
		// Cut every other chain in half: old garbage for the compaction.
		for i := 0; i < len(roots); i += 2 {
			c := roots[i]
			for d := 0; d < 900; d++ {
				c = get[Addr](hp, c, ScalarHeader+next.Offset)
			}
			putRef(hp, c, ScalarHeader+next.Offset, 0)
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

// remembered reports whether the write barrier's bit for slot is set.
func remembered(hp *Heap, slot Addr) bool {
	return hp.remBits[slot/128]&(1<<(slot/4%32)) != 0
}

// TestFailedFullCollectionLeavesTheHeapAlone fills the old generation with
// rooted large arrays and the nursery with a chain, which only a slot of an
// old-generation array names, until the live set no longer fits: the full
// collection fails with ErrOutOfMemory before it writes anything, so every
// object still reads as it was written and the slot is still remembered;
// once half the arrays are dropped the next full collection succeeds,
// reaches the chain through the slot and forgets it.
func TestFailedFullCollectionLeavesTheHeapAlone(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			hp, tc := newTestHeapOn(t, 2<<20, workers)
			node := hp.Hierarchy().Class("Node")
			val := node.FindField("val")
			next := node.FindField("next")
			arrays := make([]Addr, 40)
			var holder Addr
			hp.AddRoots(RootFunc(func(visit func(Addr) Addr) {
				for i := range arrays {
					arrays[i] = visit(arrays[i])
				}
				holder = visit(holder)
			}))
			const elems = 8192 // 32 KiB: large, so allocated in the old generation
			var err error
			if holder, err = hp.AllocArray(tc, nodeArr, elems/2); err != nil {
				t.Fatal(err)
			}
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
			gcs := func() int64 { st := hp.Stats(); return st.MinorGCs + st.FullGCs }
			before := gcs()
			var chain Addr // no root: the build must not collect
			for d := 0; d < nodes; d++ {
				b, err := hp.AllocObject(tc, node)
				if err != nil {
					t.Fatal(err)
				}
				put[int32](hp, b, ScalarHeader+val.Offset, int32(d))
				putRef(hp, b, ScalarHeader+next.Offset, chain)
				chain = b
			}
			putRef(hp, holder, ArrayHeader, chain)
			if gcs() != before || hp.inYoung(holder) || !hp.inYoung(chain) {
				t.Fatal("the chain is not a nursery chain named by an old slot")
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
				for c := get[Addr](hp, holder, ArrayHeader); c != 0; c = get[Addr](hp, c, ScalarHeader+next.Offset) {
					d--
					if got := get[int32](hp, c, ScalarHeader+val.Offset); got != int32(d) {
						t.Fatalf("%s: chain node %d reads %d", when, d, got)
					}
				}
				if d != 0 {
					t.Fatalf("%s: chain lost %d nodes", when, d)
				}
			}
			if err := hp.Collect(tc, true); !errors.Is(err, ErrOutOfMemory) {
				t.Fatalf("full collection of an oversized live set: %v, want ErrOutOfMemory", err)
			}
			check("after the failed collection")
			if !remembered(hp, holder+ArrayHeader) {
				t.Fatal("the failed collection forgot the old slot that names the chain")
			}
			for i := 0; i < len(arrays); i += 2 {
				arrays[i] = 0
			}
			if err := hp.Collect(tc, true); err != nil {
				t.Fatal(err)
			}
			check("after the next full collection")
			if slices.ContainsFunc(hp.remBits[:hp.remValid], func(w uint32) bool { return w != 0 }) {
				t.Fatal("a remembered bit survived the successful full collection")
			}
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
			if err := hp.Collect(tc, false); err != nil {
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
// the nursery's used bytes are nearly all promoted. The boundary leaves
// the old generation at least that room; whatever it leaves beyond it
// becomes a gap below the old cursor, which the collector never reads (a
// filler array would land in the nursery when the excess is small).
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
		if filler < 0 {
			t.Fatalf("seed %d: %d free old bytes cannot take %d used nursery bytes and the slack",
				seed, hp.oldEnd-hp.oldPos, used)
		}
		hp.oldPos += Addr(filler)
		hp.coverRemBits()
		if n := hp.scavengeWorkers(); n != 4 {
			t.Fatalf("seed %d: the scavenge runs on %d workers, want 4", seed, n)
		}
		if err := hp.Collect(tc, false); err != nil {
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

// oldGenBound is the most the old generation may hold in a heap of size
// bytes: the heap less a quarter of it, less at most 64 MiB, on a
// mark-bitmap word.
func oldGenBound(size int) Addr { return Addr(size-min(size/4, 64<<20)) &^ 255 }

// TestNurseryTakesUnusedOldRoom churns nodes through a 4 MiB heap while a
// ballast of rooted large arrays grows to most of the old generation's
// bound and shrinks again. After every collection the boundary between
// the generations lies on a mark-bitmap word, at or above the old cursor
// and at or below the bound, and it leaves the old generation room for
// the whole nursery and every worker's promotion slack unless it stands
// at the bound. The churn must see the nursery grow past the fixed quarter
// and must see the boundary clamped; Reset returns it to a fresh heap's.
func TestNurseryTakesUnusedOldRoom(t *testing.T) {
	const size = 4 << 20
	bound := oldGenBound(size)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			hp := New(Config{HeapSize: size, GCWorkers: workers}, testHierarchy(t), testArrayTypes)
			tc := hp.RegisterThread()
			tc.EndExternal()
			fresh := hp.oldEnd
			node := hp.Hierarchy().Class("Node")
			var ring [256]Addr
			var ballast []Addr
			hp.AddRoots(RootFunc(func(visit func(Addr) Addr) {
				for i := range ring {
					ring[i] = visit(ring[i])
				}
				for i := range ballast {
					ballast[i] = visit(ballast[i])
				}
			}))
			var grown, clamped int
			gcs := int64(0)
			check := func() {
				t.Helper()
				st := hp.Stats()
				if st.MinorGCs+st.FullGCs == gcs {
					return
				}
				gcs = st.MinorGCs + st.FullGCs
				nursery := int64(hp.youngEnd - hp.oldEnd)
				switch {
				case hp.oldEnd%256 != 0:
					t.Fatalf("after collection %d the boundary %#x is not on a mark-bitmap word", gcs, hp.oldEnd)
				case hp.oldEnd < hp.oldPos || hp.oldEnd > bound:
					t.Fatalf("after collection %d the boundary %#x is outside [old cursor %#x, bound %#x]",
						gcs, hp.oldEnd, hp.oldPos, bound)
				case hp.oldEnd < bound && int64(hp.oldEnd-hp.oldPos) < nursery+promotionSlack(workers):
					t.Fatalf("after collection %d the old room %d cannot take the %d-byte nursery and its slack",
						gcs, hp.oldEnd-hp.oldPos, nursery)
				}
				if got := hp.Obs().Snapshot().Gauges[obs.GaugeNurseryBytes]; got != nursery {
					t.Fatalf("%s = %d, the nursery is %d bytes", obs.GaugeNurseryBytes, got, nursery)
				}
				if nursery > size/4 {
					grown++
				}
				if hp.oldEnd == bound {
					clamped++
				}
			}
			rng := rand.New(rand.NewSource(1))
			ballastBytes, target := 0, int(bound)*7/8
			for step := 0; step < 400; step++ {
				for i := 0; i < 2000; i++ {
					a, err := hp.AllocObject(tc, node)
					if err != nil {
						t.Fatal(err)
					}
					ring[rng.Intn(len(ring))] = a
					check()
				}
				// The ballast climbs to its target in the first half and
				// is dropped in the second, an array every fourth step.
				if step%4 != 0 {
					continue
				}
				if step < 200 && ballastBytes < target {
					n := 5000 + rng.Intn(20000) // 20 to 100 KB: large
					a, err := hp.AllocArray(tc, intArr, n)
					if err != nil {
						t.Fatal(err)
					}
					check()
					ballast = append(ballast, a)
					ballastBytes += int(hp.objSize(a))
				} else if step >= 200 && len(ballast) > 0 {
					ballastBytes -= int(hp.objSize(ballast[len(ballast)-1]))
					ballast = ballast[:len(ballast)-1]
				}
			}
			if grown == 0 || clamped == 0 {
				t.Fatalf("of %d collections, %d left a nursery above a quarter of the heap and %d clamped the boundary; want some of each",
					gcs, grown, clamped)
			}
			hp.UnregisterThread(tc)
			if err := hp.Reset(nil, nil); err != nil {
				t.Fatal(err)
			}
			if hp.oldEnd != fresh || hp.youngPos != fresh {
				t.Fatalf("after Reset the boundary is %#x and the nursery cursor %#x, a fresh heap's %#x",
					hp.oldEnd, hp.youngPos, fresh)
			}
		})
	}
	// A live set past the boundary but within the bound survives a full
	// collection, which moves the boundary up behind it.
	t.Run("past the boundary", func(t *testing.T) {
		hp, tc := newTestHeap(t, size)
		node := hp.Hierarchy().Class("Node")
		var objs []Addr
		hp.AddRoots(RootFunc(func(visit func(Addr) Addr) {
			for i := range objs {
				objs[i] = visit(objs[i])
			}
		}))
		live := 0
		alloc := func(a Addr, err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			objs = append(objs, a)
			live += int(hp.objSize(a))
		}
		for hp.oldEnd-hp.oldPos >= 32<<10 {
			alloc(hp.AllocArray(tc, intArr, (32<<10-ArrayHeader)/4))
		}
		for hp.youngPos-hp.oldEnd < (hp.youngEnd-hp.oldEnd)/4 {
			alloc(hp.AllocObject(tc, node))
		}
		end := hp.oldEnd
		if st := hp.Stats(); st.MinorGCs+st.FullGCs != 0 || hp.oldBase+Addr(live) <= end {
			t.Fatalf("%d live bytes after %d collections do not outgrow the boundary %#x", live, st.MinorGCs+st.FullGCs, end)
		}
		if err := hp.Collect(tc, true); err != nil {
			t.Fatalf("%d live bytes, within the bound %#x: %v", live, bound, err)
		}
		if hp.oldEnd <= end || hp.Stats().LiveAfterGC != int64(live) {
			t.Fatalf("the boundary went from %#x to %#x and %d bytes are live, want it higher and %d",
				end, hp.oldEnd, hp.Stats().LiveAfterGC, live)
		}
	})
	// The largest live set a full collection accepts is the bound, as it
	// was when the nursery was a fixed quarter of the heap.
	for _, size := range []int{4 << 20, 16 << 20} {
		for _, over := range []bool{false, true} {
			t.Run(fmt.Sprintf("size=%d,over=%v", size, over), func(t *testing.T) {
				hp, tc := newTestHeap(t, size)
				var arrays []Addr
				hp.AddRoots(RootFunc(func(visit func(Addr) Addr) {
					for i := range arrays {
						arrays[i] = visit(arrays[i])
					}
				}))
				live := int(oldGenBound(size) - hp.oldBase)
				if over {
					live += 8
				}
				// 32 KiB arrays, the first taking the remainder: every
				// one is large, so allocated in the old generation.
				var err error
				for rest := live; rest > 0 && err == nil; {
					n := 32 << 10
					if rest%n != 0 {
						n += rest % n
					}
					var a Addr
					if a, err = hp.AllocArray(tc, intArr, (n-ArrayHeader)/4); err == nil {
						arrays = append(arrays, a)
						rest -= n
					}
				}
				if err == nil {
					err = hp.Collect(tc, true)
				}
				switch {
				case over && !errors.Is(err, ErrOutOfMemory):
					t.Fatalf("a live set of %d bytes, 8 over the bound: %v, want ErrOutOfMemory", live, err)
				case !over && err != nil:
					t.Fatalf("a live set of %d bytes, at the bound: %v", live, err)
				case !over && hp.Stats().LiveAfterGC != int64(live):
					t.Fatalf("live after the full collection %d, want %d", hp.Stats().LiveAfterGC, live)
				}
			})
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
	if err := hp.Collect(tc, true); err != nil {
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
	if err := hp.Collect(tc, false); err != nil {
		t.Fatal(err)
	}
	// New young object referenced ONLY from the old object: the write
	// barrier must keep it alive across a minor collection.
	b, _ := hp.AllocObject(tc, node)
	put[int32](hp, b, ScalarHeader+val.Offset, 13)
	putRef(hp, root, ScalarHeader+next.Offset, b)
	if err := hp.Collect(tc, false); err != nil {
		t.Fatal(err)
	}
	got := get[Addr](hp, root, ScalarHeader+next.Offset)
	if got == 0 || get[int32](hp, got, ScalarHeader+val.Offset) != 13 {
		t.Fatal("write barrier lost an old->young reference")
	}
}

// TestFullCollectionCoversItsSurvivors compacts a rooted nursery chain of
// about 100 KB into the old generation, onto remembered-slot bitmap words no
// earlier cursor reached, then stores a young array into the chain's last
// node and runs a minor collection. The full collection must leave those
// words zeroed: a large allocation made in between must not wipe the
// barrier's bit, and on a region handed out dirty the minor collection must
// find no bit but the barrier's.
func TestFullCollectionCoversItsSurvivors(t *testing.T) {
	for _, c := range []struct {
		name     string
		poisoned bool
		large    bool
	}{
		{"large allocation between", false, true},
		{"poisoned region", true, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.poisoned {
				defer region.Poison(0xAA)()
			}
			hp, tc := newTestHeapOn(t, 8<<20, 1)
			node := hp.Hierarchy().Class("Node")
			val := node.FindField("val")
			next := node.FindField("next")
			kids := node.FindField("kids")
			var chain Addr
			hp.AddRoots(RootFunc(func(visit func(Addr) Addr) { chain = visit(chain) }))
			const nodes = 3200
			for d := 0; d < nodes; d++ {
				b, err := hp.AllocObject(tc, node)
				if err != nil {
					t.Fatal(err)
				}
				put[int32](hp, b, ScalarHeader+val.Offset, int32(d))
				putRef(hp, b, ScalarHeader+next.Offset, chain)
				chain = b
			}
			if !hp.inYoung(chain) {
				t.Fatal("the chain left the nursery before the full collection")
			}
			if err := hp.Collect(tc, true); err != nil {
				t.Fatal(err)
			}
			// The chain's head, allocated last, is compacted last.
			if hp.inYoung(chain) || chain < 64<<10 {
				t.Fatalf("the chain's head lies at %#x after the full collection", chain)
			}
			arr, err := hp.AllocArray(tc, nodeArr, 1)
			if err != nil {
				t.Fatal(err)
			}
			leaf, err := hp.AllocObject(tc, node)
			if err != nil {
				t.Fatal(err)
			}
			put[int32](hp, leaf, ScalarHeader+val.Offset, -1)
			put(hp, arr, ArrayHeader, leaf)
			putRef(hp, chain, ScalarHeader+kids.Offset, arr)
			if c.large {
				if _, err := hp.AllocArray(tc, intArr, tlabSize/4); err != nil {
					t.Fatal(err)
				}
			}
			// A minor collection over words a dirty region left may not
			// even finish, so this is checked before it runs.
			if n := len(hp.oldRemBits()); n > hp.remValid {
				t.Fatalf("%d bitmap words lie under the old cursor, only the first %d zeroed", n, hp.remValid)
			}
			scanned := func() int64 { return hp.Obs().Snapshot().Counters[obs.CtrRemsetScanned] }
			before, nursery := scanned(), hp.oldEnd
			if err := hp.Collect(tc, false); err != nil {
				t.Fatal(err)
			}
			if got := scanned() - before; got != 1 {
				t.Fatalf("the minor collection scanned %d remembered slots, want the barrier's one", got)
			}
			arr = get[Addr](hp, chain, ScalarHeader+kids.Offset)
			if arr == 0 || arr >= nursery {
				t.Fatalf("the promoted head's slot names %#x, at or past the nursery's start %#x", arr, nursery)
			}
			if leaf = get[Addr](hp, arr, ArrayHeader); leaf == 0 || leaf >= nursery ||
				get[int32](hp, leaf, ScalarHeader+val.Offset) != -1 {
				t.Fatalf("the array's element names %#x after the minor collection", leaf)
			}
			d := nodes
			for n := chain; n != 0; n = get[Addr](hp, n, ScalarHeader+next.Offset) {
				d--
				if got := get[int32](hp, n, ScalarHeader+val.Offset); got != int32(d) {
					t.Fatalf("chain node %d reads %d", d, got)
				}
			}
			if d != 0 {
				t.Fatalf("the chain lost %d nodes", d)
			}
		})
	}
}

func TestOutOfMemory(t *testing.T) {
	hp, tc := newTestHeap(t, 2<<20)
	// An array past the old generation's bound fails at once, with no
	// collection, however large: from 4 GiB on its size does not fit an
	// Addr.
	for _, c := range []struct{ arrType, n int }{
		{intArr, (2 << 20) / 4}, // 2 MiB: past the bound
		{nodeArr, 1 << 29},      // 4 GiB of references
		{intArr, 1 << 30},       // 4 GiB of ints
		{intArr, 1<<31 - 1},
	} {
		if _, err := hp.AllocArray(tc, c.arrType, c.n); !errors.Is(err, ErrOutOfMemory) {
			t.Fatalf("an array of %d elements of type %d: %v, want ErrOutOfMemory", c.n, c.arrType, err)
		}
	}
	if st := hp.Stats(); st.MinorGCs+st.FullGCs != 0 {
		t.Fatalf("allocations no collection can make room for ran %d minor and %d full collections", st.MinorGCs, st.FullGCs)
	}
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
		putRef(hp, n, ScalarHeader+kids.Offset, arr)
		putRef(hp, n, ScalarHeader+node.FindField("next").Offset, root)
		root = n
		if i > 10000 {
			t.Fatal("never ran out of memory")
		}
	}
}

// TestConcurrentAllocAndGC churns eight threads through twice the nursery
// the heap starts with, so collections run while they allocate.
func TestConcurrentAllocAndGC(t *testing.T) {
	h := testHierarchy(t)
	hp := New(Config{HeapSize: 16 << 20}, h, testArrayTypes)
	node := h.Class("Node")
	val := node.FindField("val")

	const nThreads = 8
	perThread := 2 * int(hp.youngEnd-hp.oldEnd) / (nThreads * int(hp.classes[node.ID].size))
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
	if st.AllocObjects != int64(nThreads*perThread) {
		t.Fatalf("alloc count %d want %d", st.AllocObjects, nThreads*perThread)
	}
	if st.MinorGCs+st.FullGCs == 0 {
		t.Fatal("expected collections under churn")
	}
}

// TestAllocationSkipsACollectionAnotherThreadRan: an allocation that finds
// no room while another thread stops the world for a collection retries
// against the room that collection made, and does not run a second one
// over the space it just emptied. The collecting thread waits for the
// allocating one to leave the running state, so the allocation reads the
// collection count before that collection ends: the count rises by exactly
// one, deterministically.
func TestAllocationSkipsACollectionAnotherThreadRan(t *testing.T) {
	for _, leg := range []struct {
		name string
		n    int  // int elements per array
		full bool // the other thread's collection, and the one a failed allocation asks for
	}{
		{"tlab-refill", 8, false},
		{"large", tlabSize / 4, true},
	} {
		t.Run(leg.name, func(t *testing.T) {
			hp, b := newTestHeap(t, 4<<20)
			size := Addr(roundUp8(ArrayHeader + 4*leg.n))
			alloc := func() {
				t.Helper()
				if _, err := hp.AllocArray(b, intArr, leg.n); err != nil {
					t.Fatal(err)
				}
			}
			// Fill the space the next allocation needs, with garbage and
			// without a collection.
			if leg.full {
				for hp.oldPos+size <= hp.oldEnd {
					alloc()
				}
			} else {
				for hp.youngPos+tlabSize <= hp.youngEnd || b.tlab.pos+size <= b.tlab.end {
					alloc()
				}
			}
			before := hp.Stats()

			a := hp.RegisterThread()
			defer hp.UnregisterThread(a)
			done := make(chan error)
			go func() {
				err := hp.Collect(a, leg.full)
				a.BeginExternal() // a mutator's next safepoint
				done <- err
			}()
			for !hp.sp.wanted.Load() {
				runtime.Gosched()
			}
			alloc()
			if err := <-done; err != nil {
				t.Fatal(err)
			}

			after := hp.Stats()
			minor, full := after.MinorGCs-before.MinorGCs, after.FullGCs-before.FullGCs
			if minor+full != 1 || (full == 1) != leg.full {
				t.Fatalf("collections: %d minor, %d full; want the other thread's one only", minor, full)
			}
		})
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
	if err := hp.Collect(tc, false); err != nil { // promote the array
		t.Fatal(err)
	}
	arr = root
	young, _ := hp.AllocObject(tc, node)
	put[int32](hp, young, ScalarHeader+val.Offset, 99)
	putRef(hp, arr, ArrayHeader+3*8, young) // old array -> young element
	if err := hp.Collect(tc, false); err != nil {
		t.Fatal(err)
	}
	got := get[Addr](hp, root, ArrayHeader+3*8)
	if got == 0 || get[int32](hp, got, ScalarHeader+val.Offset) != 99 {
		t.Fatal("array element barrier lost old->young reference")
	}
}

// TestConcurrentBarriersShareWords: four mutator threads store old->young
// references into interleaved slots of one old Node[] at once, so their
// barriers set bits of the same bitmap words together. The minor collection
// that follows, on four workers, must forward every slot and scan each once:
// a bit lost to a racing store leaves its slot naming the emptied nursery.
func TestConcurrentBarriersShareWords(t *testing.T) {
	const threads, perThread = 4, 2000
	hp, tc := newTestHeapOn(t, 8<<20, 4)
	node := hp.Hierarchy().Class("Node")
	val := node.FindField("val")
	arr, err := hp.AllocArray(tc, nodeArr, threads*perThread) // large: old
	if err != nil {
		t.Fatal(err)
	}
	hp.AddRoots(RootFunc(func(visit func(Addr) Addr) { arr = visit(arr) }))
	gcs := func() int64 { st := hp.Stats(); return st.MinorGCs + st.FullGCs }
	before := gcs()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tc := hp.RegisterThread()
			tc.EndExternal()
			defer hp.UnregisterThread(tc)
			// Allocate first, then store, so the stores of all four
			// threads overlap with nothing between them.
			nodes := make([]Addr, perThread)
			for i := range nodes {
				a, err := hp.AllocObject(tc, node)
				if err != nil {
					t.Error(err)
					return
				}
				slot := i*threads + id
				put[int32](hp, a, ScalarHeader+val.Offset, int32(slot))
				nodes[i] = a
			}
			<-start
			for i, a := range nodes {
				putRef(hp, arr, ArrayHeader+8*(i*threads+id), a)
			}
		}()
	}
	close(start)
	wg.Wait()
	if gcs() != before {
		t.Fatal("a collection ran while the threads stored: the nodes had no roots")
	}
	nursery := hp.oldEnd // every node lies above it, every copy below
	if err := hp.Collect(tc, false); err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < threads*perThread; slot++ {
		a := get[Addr](hp, arr, ArrayHeader+8*slot)
		if a >= nursery || get[int32](hp, a, ScalarHeader+val.Offset) != int32(slot) {
			t.Fatalf("slot %d names %#x after the minor collection: its remembered bit was lost", slot, a)
		}
	}
	if got := hp.Obs().Snapshot().Counters[obs.CtrRemsetScanned]; got != threads*perThread {
		t.Fatalf("the minor collection scanned %d remembered slots, want %d", got, threads*perThread)
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
			if err := hp.Collect(tc, full); err != nil {
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
// old-generation object where a fresh heap would, and forgets the old slots
// the last job left remembered: the next job's minor collection scans its
// own slots only.
func TestResetRewindsTheOldGeneration(t *testing.T) {
	hp := New(Config{HeapSize: 8 << 20}, testHierarchy(t), testArrayTypes)
	node := hp.Hierarchy().Class("Node")
	// large allocates a Node[] past half a TLAB, which goes straight to the
	// old generation, and stores young nodes into its first refs slots, on
	// a thread of its own so the heap is quiescent between steps.
	large := func(refs int, gc bool) Addr {
		t.Helper()
		tc := hp.RegisterThread()
		tc.EndExternal()
		a, err := hp.AllocArray(tc, nodeArr, tlabSize/8)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < refs; i++ {
			b, err := hp.AllocObject(tc, node)
			if err != nil {
				t.Fatal(err)
			}
			putRef(hp, a, ArrayHeader+8*i, b)
		}
		if gc {
			if err := hp.Collect(tc, false); err != nil {
				t.Fatal(err)
			}
		}
		tc.BeginExternal()
		hp.UnregisterThread(tc)
		return a
	}
	if a := large(0, false); a != hp.oldBase {
		t.Fatalf("first large array at %#x, want the old base %#x", a, hp.oldBase)
	}
	if a := large(100, false); a == hp.oldBase || !remembered(hp, a+ArrayHeader) {
		t.Fatal("second large array reused the old base or its slots are not remembered")
	}
	if err := hp.Reset(nil, nil); err != nil {
		t.Fatal(err)
	}
	if a := large(10, true); a != hp.oldBase {
		t.Fatalf("after reset the large array is at %#x, want the rewound old base %#x", a, hp.oldBase)
	}
	if got := hp.Obs().Snapshot().Counters[obs.CtrRemsetScanned]; got != 10 {
		t.Fatalf("the job after Reset scanned %d remembered slots, want its own 10", got)
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
