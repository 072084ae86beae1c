package vm

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/heap"
	"repro/internal/offheap"
)

// TestSlotCodecSharedByBothHalves stores each kind of value through
// storeSlot and reads it back through loadSlot over a heap object's Bytes
// and over a page record's Bytes, as a scalar field and as an array
// element: the two halves share one codec, so all four must agree.
func TestSlotCodecSharedByBothHalves(t *testing.T) {
	p := compile(t, `
class Rec { boolean z; byte b; int i; long l; double d; Rec r; Rec[] rs; }
class Main { static void main() { } }`)
	m, err := New(p, Config{HeapSize: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	th, err := m.NewThread(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Close()
	th.tc.EndExternal()
	defer th.tc.BeginExternal()
	hp, rec := m.Heap, p.H.Class("Rec")
	rt := offheap.NewRuntime(nil)
	pm := rt.NewIterScope(nil, 0)
	defer pm.Close()

	negZero := math.Float64bits(math.Copysign(0, -1))
	minInt32 := int64(math.MinInt32)
	cases := []struct {
		field    string
		in, want Value
	}{
		{"z", 1, 1},
		{"b", Value(uint8(0xff)), ^Value(0)}, // byte -1 comes back sign-extended
		{"i", Value(uint32(0xffffffff)), ^Value(0)},
		{"i", Value(uint32(1 << 31)), Value(minInt32)},
		{"l", Value(uint64(1<<63 | 12345)), Value(uint64(1<<63 | 12345))},
		{"d", 0x7ff8_0000_dead_beef, 0x7ff8_0000_dead_beef}, // NaN payload survives
		{"d", negZero, negZero},
		{"r", 0x1234_5678, 0x1234_5678},
	}
	for _, c := range cases {
		f := rec.FindField(c.field)
		t.Run(fmt.Sprintf("%s/%#x", f.Type, c.in), func(t *testing.T) {
			obj, err := hp.AllocObject(th.tc, rec)
			if err != nil {
				t.Fatal(err)
			}
			idx, ok := p.ArrayTypes.Index(f.Type.String())
			if !ok {
				t.Fatalf("the program's array type table lacks %s", f.Type)
			}
			arr, err := hp.AllocArray(th.tc, idx, 3)
			if err != nil {
				t.Fatal(err)
			}
			prec, err := pm.Current().AllocRecord(nil, uint16(rec.ID), rec.BodySize)
			if err != nil {
				t.Fatal(err)
			}
			parr, err := pm.Current().AllocArray(nil, idx, f.Type.FieldSize(), 3)
			if err != nil {
				t.Fatal(err)
			}
			elem := 2 * f.Type.FieldSize()
			slots := map[string][]byte{
				"heap field":   hp.Bytes(obj)[heap.ScalarHeader+f.Offset:],
				"heap element": hp.Bytes(arr)[heap.ArrayHeader+elem:],
				"page field":   rt.Bytes(prec)[offheap.ScalarHeader+f.Offset:],
				"page element": rt.Bytes(parr)[offheap.ArrayHeader+elem:],
			}
			for where, b := range slots {
				storeSlot(b, f.Type.Kind, c.in)
				if got := loadSlot(b, f.Type.Kind); got != c.want {
					t.Errorf("%s: stored %#x, loaded %#x, want %#x", where, c.in, got, c.want)
				}
			}
			// The neighbours of a narrow slot are untouched.
			if n := heap.ArrayLength(hp.Bytes(arr)); n != 3 {
				t.Errorf("heap array length = %d after element store", n)
			}
			if n := offheap.ArrayLength(rt.Bytes(parr)); n != 3 {
				t.Errorf("page array length = %d after element store", n)
			}
		})
	}
}

// TestHeapHalfTrapTexts pins the exact text of every trap the heap-half
// access ops raise, null check before bounds check.
func TestHeapHalfTrapTexts(t *testing.T) {
	cases := []struct{ body, want string }{
		{"Main m = null; Sys.println(m.f);", "NullPointerException: field read f"},
		{"Main m = null; m.f = 1;", "NullPointerException: field write f"},
		{"int[] a = null; Sys.println(a[0]);", "NullPointerException: array read"},
		{"int[] a = null; a[0] = 1;", "NullPointerException: array write"},
		{"int[] a = null; Sys.println(a.length);", "NullPointerException: array length"},
		{"int[] a = new int[3]; Sys.println(a[0 - 1]);", "ArrayIndexOutOfBoundsException: index -1, length 3"},
		{"int[] a = new int[3]; Sys.println(a[3]);", "ArrayIndexOutOfBoundsException: index 3, length 3"},
		{"int[] a = new int[3]; a[0 - 1] = 1;", "ArrayIndexOutOfBoundsException: index -1, length 3"},
		{"int[] a = new int[3]; a[3] = 1;", "ArrayIndexOutOfBoundsException: index 3, length 3"},
	}
	for _, c := range cases {
		t.Run(c.body, func(t *testing.T) {
			p := compile(t, "class Main { int f; static void main() { "+c.body+" } }")
			m, err := New(p, Config{HeapSize: 4 << 20})
			if err != nil {
				t.Fatal(err)
			}
			th, err := m.NewThread(nil)
			if err != nil {
				t.Fatal(err)
			}
			defer th.Close()
			if _, err := th.Call("Main.main"); err == nil || err.Error() != c.want {
				t.Fatalf("err = %v, want %s", err, c.want)
			}
		})
	}
}

// TestInterpreterStoresReachTheWriteBarrier fails if OpStore or OpAStore
// loses its barrier call: a holder object and an Object[] survive into the
// old generation, fresh nursery objects are stored into the field and into
// an array slot and are reachable from nowhere else, and the churn that
// follows forces minor collections that reuse the nursery. Without the
// barrier the collector never learns of the two old->young slots, and the
// reads find whatever the churn allocated over the boxes.
func TestInterpreterStoresReachTheWriteBarrier(t *testing.T) {
	src := `
class Box { int v; Box(int v) { this.v = v; } }
class Holder { Object f; }
class Main {
    static Holder h;
    static Object[] a;
    static void churn() {
        for (int i = 0; i < 60000; i = i + 1) { Box junk = new Box(0 - 1); }
    }
    static void main() {
        Main.h = new Holder();
        Main.a = new Object[4];
        Main.churn();
        Main.h.f = new Box(41);
        Main.a[2] = new Box(42);
        Main.churn();
        Box x = (Box) Main.h.f;
        Box y = (Box) Main.a[2];
        Sys.println(x.v);
        Sys.println(y.v);
    }
}`
	p := compile(t, src)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("gcworkers-%d", workers), func(t *testing.T) {
			var out bytes.Buffer
			m, err := New(p, Config{HeapSize: 1 << 20, Out: &out, GCWorkers: workers})
			if err != nil {
				t.Fatal(err)
			}
			th, err := m.NewThread(nil)
			if err != nil {
				t.Fatal(err)
			}
			defer th.Close()
			if _, err := th.Call("Main.main"); err != nil {
				t.Fatalf("run: %v (output %q)", err, out.String())
			}
			if got := out.String(); got != "41\n42\n" {
				t.Fatalf("output %q, want 41 and 42: an old->young store was lost", got)
			}
			st := m.Heap.Stats()
			if st.MinorGCs < 2 || st.FullGCs != 0 {
				t.Fatalf("minor %d, full %d: the test needs minor collections only, before and after the stores",
					st.MinorGCs, st.FullGCs)
			}
		})
	}
}

// TestIterationIDsDensePerVM runs the IterationStart/End loops of two
// transformed VMs, two threads each, at the same time. Iteration IDs come
// from each VM's own page store, so every VM must hand out exactly
// 0..n-1 — fresh, and again after ResetForReuse — however the four threads
// interleave.
func TestIterationIDsDensePerVM(t *testing.T) {
	p2 := transform(t, compile(t, `class Main { static void main() { } } class D { int x; }`), "D")
	const threads, iters = 2, 200
	var vms [2]*VM
	for i := range vms {
		m, err := New(p2, Config{HeapSize: 4 << 20})
		if err != nil {
			t.Fatal(err)
		}
		vms[i] = m
	}
	round := func(label string) {
		t.Helper()
		ids := make([][]int, len(vms)*threads)
		var wg sync.WaitGroup
		for vi, m := range vms {
			for ti := 0; ti < threads; ti++ {
				th, err := m.NewThread(nil)
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(slot int) {
					defer wg.Done()
					defer th.Close()
					for i := 0; i < iters; i++ {
						th.IterationStart()
						ids[slot] = append(ids[slot], th.iter.Current().IterID)
						th.IterationEnd()
					}
				}(vi*threads + ti)
			}
		}
		wg.Wait()
		for vi := range vms {
			var got []int
			for ti := 0; ti < threads; ti++ {
				got = append(got, ids[vi*threads+ti]...)
			}
			sort.Ints(got)
			for want, id := range got {
				if id != want {
					t.Fatalf("%s: vm %d iteration IDs are not dense from 0: position %d holds %d", label, vi, want, id)
				}
			}
			if len(got) != threads*iters {
				t.Fatalf("%s: vm %d recorded %d iterations, want %d", label, vi, len(got), threads*iters)
			}
		}
	}
	round("fresh")
	for _, m := range vms {
		if err := m.ResetForReuse(ResetConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	round("after ResetForReuse")
}
