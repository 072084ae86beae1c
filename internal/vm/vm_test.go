package vm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/heap"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/lower"
	"repro/internal/obs"
	"repro/internal/offheap"
	"repro/internal/region"
	"repro/internal/stdlib"
)

// compile builds an untransformed program from FJ source (stdlib
// included).
func compile(t testing.TB, src string) *ir.Program {
	t.Helper()
	files, err := stdlib.ParseWith(map[string]string{"t.fj": src})
	if err != nil {
		t.Fatal(err)
	}
	h, err := lang.BuildHierarchy(files...)
	if err != nil {
		t.Fatal(err)
	}
	if err := lang.Check(h); err != nil {
		t.Fatal(err)
	}
	p, err := lower.Program(h)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func transform(t testing.TB, p *ir.Program, classes ...string) *ir.Program {
	t.Helper()
	p2, err := core.Transform(p, core.Options{DataClasses: classes})
	if err != nil {
		t.Fatal(err)
	}
	return p2
}

// runMain runs Class.main (or its facade twin) and returns printed output.
func runMain(t testing.TB, p *ir.Program, heapSize int) string {
	t.Helper()
	var out bytes.Buffer
	m, err := New(p, Config{HeapSize: heapSize, Out: &out, RandSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	th, err := m.NewThread(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Close()
	entry := "Main.main"
	if p.Transformed && p.DataClasses["Main"] {
		entry = "MainFacade.main"
	}
	if _, err := th.Call(entry); err != nil {
		t.Fatalf("run: %v (output %q)", err, out.String())
	}
	return out.String()
}

func TestRuntimeErrors(t *testing.T) {
	cases := map[string]struct {
		body string
		want string
	}{
		"npe-field":    {"Main m = null; int x = m.f;", "NullPointerException"},
		"npe-call":     {"Main m = null; m.go();", "NullPointerException"},
		"bounds":       {"int[] a = new int[3]; int x = a[5];", "ArrayIndexOutOfBounds"},
		"neg-bounds":   {"int[] a = new int[3]; int x = a[0 - 1];", "ArrayIndexOutOfBounds"},
		"div-zero":     {"int z = 0; int x = 5 / z;", "ArithmeticException"},
		"rem-zero":     {"int z = 0; int x = 5 % z;", "ArithmeticException"},
		"bad-cast":     {"Object o = new Main(); String s = (String) o;", "ClassCastException"},
		"neg-arr-size": {"int n = 0 - 2; int[] a = new int[n];", "NegativeArraySize"},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			src := "class Main { int f; void go() { } static void main() { " + c.body + " } }"
			p := compile(t, src)
			m, err := New(p, Config{HeapSize: 8 << 20})
			if err != nil {
				t.Fatal(err)
			}
			th, err := m.NewThread(nil)
			if err != nil {
				t.Fatal(err)
			}
			defer th.Close()
			_, err = th.Call("Main.main")
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("want %s, got %v", c.want, err)
			}
		})
	}
}

func TestIntrinsicsPrintFormats(t *testing.T) {
	src := `
class Main {
    static void main() {
        Sys.println(true);
        Sys.println(false);
        Sys.print(1);
        Sys.print(2);
        Sys.println(3);
        Sys.println(2147483647);
        Sys.println(9223372036854775807L);
        Sys.println(0.25);
        Sys.println(1.0 / 3.0);
        Sys.println("text");
        Sys.println(Sys.sqrt(16.0));
        Sys.println(Sys.abs(0.0 - 2.5));
        byte b = (byte) 100;
        Sys.println(b);
        Object o = null;
        Sys.println(o);
        Sys.println(new Main());
        Sys.println(new int[2]);
    }
}
`
	out := runMain(t, compile(t, src), 8<<20)
	want := "true\nfalse\n123\n2147483647\n9223372036854775807\n0.25\n" +
		"0.3333333333333333\ntext\n4\n2.5\n100\nnull\nMain\nint[]\n"
	if out != want {
		t.Fatalf("got %q\nwant %q", out, want)
	}
}

func TestRandDeterministic(t *testing.T) {
	src := `
class Main {
    static void main() {
        for (int i = 0; i < 5; i = i + 1) { Sys.println(Sys.rand(100)); }
    }
}
`
	p := compile(t, src)
	a := runMain(t, p, 8<<20)
	b := runMain(t, p, 8<<20)
	if a != b {
		t.Fatalf("rand not deterministic: %q vs %q", a, b)
	}
	for _, line := range strings.Fields(a) {
		if len(line) > 2 {
			t.Fatalf("rand out of bounds: %s", line)
		}
	}
}

func TestArraycopyOverlap(t *testing.T) {
	src := `
class Main {
    static void main() {
        int[] a = new int[6];
        for (int i = 0; i < 6; i = i + 1) { a[i] = i; }
        Sys.arraycopy(a, 0, a, 2, 4);
        for (int i = 0; i < 6; i = i + 1) { Sys.print(a[i]); }
        Sys.println(0);
    }
}
`
	out := runMain(t, compile(t, src), 8<<20)
	if out != "0101230\n" {
		t.Fatalf("got %q", out)
	}
}

// TestMonitorContention has eight threads bump one synchronized counter
// through the boundary API, on P (a heap object) and on P' (a page record):
// one lock pool serves both. Each bump allocates inside the block, in a heap
// small enough that collections run while waiters are parked on the lock,
// so on P they move the Counter the lock field lives in. The count must be
// exact and every pool lock back in the pool at the end (§3.4).
func TestMonitorContention(t *testing.T) {
	src := `
class Junk { long a; long b; long c; long d; }
class Counter {
    int n;
    void bump() {
        synchronized (this) {
            Junk[] js = new Junk[8];
            for (int k = 0; k < 8; k = k + 1) { js[k] = new Junk(); }
            int v = this.n;
            this.n = v + js.length - 7;
        }
    }
}
class Main { static void main() { } }
`
	p := compile(t, src)
	for _, leg := range []struct {
		name string
		prog *ir.Program
	}{
		{"P", p},
		{"P2", transform(t, p, "Counter")},
	} {
		t.Run(leg.name, func(t *testing.T) {
			m, err := New(leg.prog, Config{HeapSize: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			main, err := m.NewThread(nil)
			if err != nil {
				t.Fatal(err)
			}
			defer main.Close()
			obj, err := main.NewObj("Counter")
			if err != nil {
				t.Fatal(err)
			}
			at := m.Get(obj)
			const workers, per = 8, 500
			var wg sync.WaitGroup
			for i := 0; i < workers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					th, err := m.NewThread(main)
					if err != nil {
						t.Error(err)
						return
					}
					defer th.Close()
					for j := 0; j < per; j++ {
						if _, err := th.Invoke(obj, "bump"); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			// A lock field lost in a move strands the waiters: fail, not hang.
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("the threads did not finish within 30s")
			}
			v, err := main.GetField(obj, "Counter", "n")
			if err != nil {
				t.Fatal(err)
			}
			if int32(v) != workers*per {
				t.Fatalf("counter = %d want %d", int32(v), workers*per)
			}
			if st := m.Heap.Stats(); st.MinorGCs+st.FullGCs == 0 {
				t.Fatal("no collection ran while the threads contended")
			}
			if !leg.prog.Transformed && m.Get(obj) == at {
				t.Fatal("no collection moved the Counter")
			}
			if n := m.Locks.InUse(); n != 0 {
				t.Fatalf("%d pool lock(s) leaked", n)
			}
		})
	}
}

// TestShortLivedMonitorsShareOneLock synchronizes on 10,000 distinct
// objects that die at once: on P as on P', the pool lock goes back when the
// block exits, so one lock serves them all.
func TestShortLivedMonitorsShareOneLock(t *testing.T) {
	p := compile(t, `
class Box { int v; }
class Main {
    static void main() {
        long acc = 0L;
        for (int i = 0; i < 10000; i = i + 1) {
            Box b = new Box();
            synchronized (b) { b.v = i; }
            acc = acc + (long) b.v;
        }
        Sys.println(acc);
    }
}`)
	var out bytes.Buffer
	m, err := New(p, Config{HeapSize: 1 << 20, Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	th, err := m.NewThread(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := th.Call("Main.main"); err != nil {
		t.Fatal(err)
	}
	th.Close()
	if out.String() != "49995000\n" {
		t.Fatalf("output %q", out.String())
	}
	if built, peak := m.Locks.Built(), m.Locks.PeakInUse(); built > 1 || peak > 1 {
		t.Fatalf("10,000 short-lived monitors built %d pool lock(s), %d in use at once; want at most 1", built, peak)
	}
}

// TestResetRefusesLockInUse: a job that traps inside synchronized ends
// holding a pool lock, which poisons the VM the way a leaked page does, on
// P (a heap object's lock) as on P' (a record's).
func TestResetRefusesLockInUse(t *testing.T) {
	p := compile(t, `
class Rec {
    int v;
    void poke(int i) {
        synchronized (this) {
            int[] a = new int[1];
            a[i] = 1;
            this.v = a[0];
        }
    }
}
class Main {
    static void main() { new Rec().poke(3); }
}`)
	for _, leg := range []struct {
		name, entry string
		prog        *ir.Program
	}{
		{"P", "Main.main", p},
		{"P2", "MainFacade.main", transform(t, p, "Rec", "Main")},
	} {
		t.Run(leg.name, func(t *testing.T) {
			m, err := New(leg.prog, Config{HeapSize: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			th, err := m.NewThread(nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := th.Call(leg.entry); err == nil || !strings.HasPrefix(err.Error(), "ArrayIndexOutOfBoundsException") {
				t.Fatalf("the job ended with %v, want the bounds trap", err)
			}
			th.Close()
			if n := m.Locks.InUse(); n != 1 {
				t.Fatalf("%d pool lock(s) in use after the trap, want 1", n)
			}
			if err := m.ResetForReuse(ResetConfig{}); !errors.Is(err, faults.ErrNotReusable) {
				t.Fatalf("ResetForReuse with a lock in use = %v, want ErrNotReusable", err)
			}
		})
	}
}

func TestHandlesSurviveGC(t *testing.T) {
	src := `
class Node {
    int v;
    Node(int v) { this.v = v; }
}
class Main {
    static void churn(int n) {
        for (int i = 0; i < n; i = i + 1) {
            Node n = new Node(i);
        }
    }
    static void main() { }
}
`
	p := compile(t, src)
	m, err := New(p, Config{HeapSize: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	th, err := m.NewThread(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Close()
	// Hold objects via handles, churn through at least twice the nursery
	// (a Node takes 16 bytes or more) to force collections, verify the
	// held objects moved but stayed intact.
	var objs []Obj
	for i := 0; i < 20; i++ {
		o, err := th.NewObj("Node", I(int64(i*7)))
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, o)
	}
	churn := m.Heap.Obs().Snapshot().Gauges[obs.GaugeNurseryBytes] / 8
	if _, err := th.InvokeStatic("Main", "churn", I(churn)); err != nil {
		t.Fatal(err)
	}
	if m.Heap.Stats().MinorGCs+m.Heap.Stats().FullGCs == 0 {
		t.Fatal("churn did not trigger a collection")
	}
	for i, o := range objs {
		v, err := th.GetField(o, "Node", "v")
		if err != nil {
			t.Fatal(err)
		}
		if int32(v) != int32(i*7) {
			t.Fatalf("handle %d: value %d want %d", i, int32(v), i*7)
		}
	}
}

func TestBoundaryStringRoundtrip(t *testing.T) {
	src := `
class Main {
    static String echo(String s) { return s; }
    static int len(String s) { return s.length(); }
    static void main() { }
}
`
	for _, tr := range []bool{false, true} {
		p := compile(t, src)
		if tr {
			p = transform(t, p, "Main")
		}
		m, err := New(p, Config{HeapSize: 8 << 20})
		if err != nil {
			t.Fatal(err)
		}
		th, err := m.NewThread(nil)
		if err != nil {
			t.Fatal(err)
		}
		defer th.Close()
		o, err := th.NewString("hello world")
		if err != nil {
			t.Fatal(err)
		}
		got, err := th.GoString(o)
		if err != nil {
			t.Fatal(err)
		}
		if got != "hello world" {
			t.Fatalf("transformed=%v: roundtrip %q", tr, got)
		}
		n, err := th.InvokeStatic("Main", "len", S("four"))
		if err != nil {
			t.Fatal(err)
		}
		if int32(n) != 4 {
			t.Fatalf("transformed=%v: len = %d", tr, int32(n))
		}
		eo, err := th.InvokeStaticObj("Main", "echo", O(o))
		if err != nil {
			t.Fatal(err)
		}
		got, err = th.GoString(eo)
		if err != nil {
			t.Fatal(err)
		}
		if got != "hello world" {
			t.Fatalf("transformed=%v: echo %q", tr, got)
		}
	}
}

func TestBulkArrayHelpers(t *testing.T) {
	src := `class Main { static void main() { } } class D { int x; }`
	for _, tr := range []bool{false, true} {
		p := compile(t, src)
		if tr {
			p = transform(t, p, "D")
		}
		m, err := New(p, Config{HeapSize: 8 << 20})
		if err != nil {
			t.Fatal(err)
		}
		th, err := m.NewThread(nil)
		if err != nil {
			t.Fatal(err)
		}
		defer th.Close()
		ints := []int32{1, -2, 3, -4, 1 << 30}
		oi, err := th.NewIntArr(ints)
		if err != nil {
			t.Fatal(err)
		}
		back, err := th.ReadIntArr(oi)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ints {
			if back[i] != ints[i] {
				t.Fatalf("transformed=%v int[%d]=%d want %d", tr, i, back[i], ints[i])
			}
		}
		ds := []float64{0.5, -1.25, 3e10}
		od, err := th.NewDoubleArr(ds)
		if err != nil {
			t.Fatal(err)
		}
		dback, err := th.ReadDoubleArr(od)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ds {
			if dback[i] != ds[i] {
				t.Fatalf("transformed=%v double[%d]", tr, i)
			}
		}
		// The fill and read-into variants see the same array, over
		// several of the fill's chunks.
		many := make([]float64, 1000)
		for i := range many {
			many[i] = float64(i) / 7
		}
		of, err := th.NewDoubleArrOf(len(many), func(from int, dst []float64) { copy(dst, many[from:]) })
		if err != nil {
			t.Fatal(err)
		}
		into := make([]float64, len(many))
		if err := th.ReadDoubleArrInto(of, into); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(into, many) {
			t.Fatalf("transformed=%v NewDoubleArrOf then ReadDoubleArrInto differs", tr)
		}
		if err := th.ReadDoubleArrInto(of, into[:2]); err == nil {
			t.Fatalf("transformed=%v read a %d-element array into 2 doubles", tr, len(many))
		}
		// Element access agrees with bulk writes.
		v, err := th.ArrGet(oi, 4)
		if err != nil {
			t.Fatal(err)
		}
		if int32(v) != 1<<30 {
			t.Fatalf("ArrGet = %d", int32(v))
		}
		if n, _ := th.ArrLen(oi); n != 5 {
			t.Fatalf("len %d", n)
		}
	}
}

func TestOOMPropagatesToBoundary(t *testing.T) {
	src := `
class Blob {
    long a; long b; long c; long d;
    Blob next;
}
class Main {
    static Blob build(int n) {
        Blob head = null;
        for (int i = 0; i < n; i = i + 1) {
            Blob b = new Blob();
            b.next = head;
            head = b;
        }
        return head;
    }
    static void main() { }
}
`
	p := compile(t, src)
	m, err := New(p, Config{HeapSize: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	th, err := m.NewThread(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Close()
	_, err = th.InvokeStaticObj("Main", "build", I(1<<20))
	if err == nil || !strings.Contains(err.Error(), "OutOfMemoryError") {
		t.Fatalf("want OutOfMemoryError, got %v", err)
	}
}

// TestIsOOM: the engines' recovery ladders all key on this one
// classifier, so it must see both memory systems' sentinels through %w
// wrapping, the FJ-level text once the chain is lost, and nothing else.
func TestIsOOM(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("node 3: map phase: %w", err) }
	for _, tc := range []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"heap", heap.ErrOutOfMemory, true},
		{"heap wrapped", wrap(heap.ErrOutOfMemory), true},
		{"page exhausted", offheap.ErrPageExhausted, true},
		{"page exhausted wrapped", wrap(offheap.ErrPageExhausted), true},
		{"page quota", offheap.ErrPageQuota, true},
		{"page quota wrapped", wrap(offheap.ErrPageQuota), true},
		{"FJ-level text", errors.New("job 12 failed: OutOfMemoryError: managed heap exhausted"), true},
		{"unrelated", errNPE("field x of null"), false},
		{"unrelated wrapped", wrap(errBounds(4, 4)), false},
	} {
		if got := IsOOM(tc.err); got != tc.want {
			t.Errorf("IsOOM(%s: %v) = %v, want %v", tc.name, tc.err, got, tc.want)
		}
	}
}

func TestIterationScopesAtBoundary(t *testing.T) {
	src := `class Main { static void main() { } } class D { int x; }`
	p2 := transform(t, compile(t, src), "D")
	m, err := New(p2, Config{HeapSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	th, err := m.NewThread(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Close()
	for i := 0; i < 50; i++ {
		th.IterationStart()
		for j := 0; j < 500; j++ {
			o, err := th.NewObj("D")
			if err != nil {
				t.Fatal(err)
			}
			th.FreeObj(o)
		}
		th.IterationEnd()
	}
	st := m.RT.Stats()
	if st.PagesLive != 0 {
		t.Fatalf("%d pages live after iterations", st.PagesLive)
	}
	if st.PagesCreated > 20 {
		t.Fatalf("%d pages created; recycling broken at boundary", st.PagesCreated)
	}
}

func TestFacadePoolBoundNeverExceeded(t *testing.T) {
	// Stress virtual calls with multiple data-typed params; facade
	// allocation happens only at thread start.
	src := `
class Pt {
    int x;
    Pt(int x) { this.x = x; }
    int add3(Pt a, Pt b, Pt c) { return this.x + a.x + b.x + c.x; }
}
class Main {
    static void main() {
        Pt p = new Pt(1);
        long sum = 0L;
        for (int i = 0; i < 10000; i = i + 1) {
            sum = sum + p.add3(new Pt(2), new Pt(3), new Pt(4));
        }
        Sys.println(sum);
    }
}
`
	p := compile(t, src)
	p2 := transform(t, p, "Pt", "Main")
	if p2.Bounds["Pt"] != 3 {
		t.Fatalf("bound for Pt = %d, want 3", p2.Bounds["Pt"])
	}
	var out bytes.Buffer
	m, err := New(p2, Config{HeapSize: 8 << 20, Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	th, err := m.NewThread(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Close()
	if _, err := th.Call("MainFacade.main"); err != nil {
		t.Fatal(err)
	}
	if out.String() != "100000\n" {
		t.Fatalf("got %q", out.String())
	}
	fc := p2.H.Class("PtFacade")
	n := m.Heap.ClassAllocCount(fc)
	if n > int64(p2.Bounds["Pt"]+1) {
		t.Fatalf("allocated %d PtFacades, bound+receiver = %d", n, p2.Bounds["Pt"]+1)
	}
}

func TestNullDataArgAtBoundary(t *testing.T) {
	// A null data reference passed across the boundary of a transformed
	// program must arrive as FJ null (a null-bound facade), matching
	// generated call sites.
	src := `
class D {
    int v;
    D(int v) { this.v = v; }
    static int probe(D d) {
        if (d == null) { return -1; }
        return d.v;
    }
    int touch(D other) {
        if (other == null) { return -2; }
        return other.v;
    }
}
class Main { static void main() { } }
`
	p := compile(t, src)
	for name, prog := range map[string]*ir.Program{"P": p, "P'": transform(t, p, "D")} {
		m, err := New(prog, Config{HeapSize: 8 << 20})
		if err != nil {
			t.Fatal(err)
		}
		th, err := m.NewThread(nil)
		if err != nil {
			t.Fatal(err)
		}
		defer th.Close()
		v, err := th.InvokeStatic("D", "probe", O(NilObj))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if int32(v) != -1 {
			t.Fatalf("%s: probe(null) = %d", name, int32(v))
		}
		d, err := th.NewObj("D", I(9))
		if err != nil {
			t.Fatal(err)
		}
		v, err = th.Invoke(d, "touch", O(NilObj))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if int32(v) != -2 {
			t.Fatalf("%s: touch(null) = %d", name, int32(v))
		}
		v, err = th.Invoke(d, "touch", O(d))
		if err != nil {
			t.Fatal(err)
		}
		if int32(v) != 9 {
			t.Fatalf("%s: touch(d) = %d", name, int32(v))
		}
	}
}

func TestVTableDispatchDeep(t *testing.T) {
	src := `
class A { int f() { return 1; } int g() { return 10; } }
class B extends A { int f() { return 2; } }
class C extends B { int g() { return 30; } }
class Main {
    static void main() {
        A[] xs = new A[3];
        xs[0] = new A();
        xs[1] = new B();
        xs[2] = new C();
        for (int i = 0; i < 3; i = i + 1) {
            Sys.println(xs[i].f() * 100 + xs[i].g());
        }
    }
}
`
	out := runMain(t, compile(t, src), 8<<20)
	if out != "110\n210\n230\n" {
		t.Fatalf("got %q", out)
	}
}

// recordOpsProgram touches fields and arrays of every element kind the
// page ops distinguish (byte, int, long, double, reference), enough of
// them that a tight tier watermark spills and promotes mid-run. body is
// spliced into main after the traffic, for the trap cases.
func recordOpsProgram(body string) string {
	return `
class Rec { byte b; int i; long l; double d; Rec next; int[] xs; }
class Main {
    static void main() {
        byte[] bs = new byte[3000]; int[] is = new int[3000]; long[] ls = new long[3000];
        double[] ds = new double[3000]; Rec[] rs = new Rec[3000];
        for (int k = 0; k < 3000; k = k + 1) {
            Rec r = new Rec();
            r.b = (byte) (k % 100); r.i = k * 3; r.l = 1000000007L * k; r.d = 0.5 * k;
            if (k > 0) { r.next = rs[k - 1]; }
            r.xs = new int[4];
            r.xs[k % 4] = k;
            bs[k] = r.b; is[k] = r.i; ls[k] = r.l; ds[k] = r.d; rs[k] = r;
        }
        long sig = 0L;
        for (int k = 0; k < 3000; k = k + 1) {
            Rec r = rs[k];
            sig = sig * 31L + bs[k] + is[k] + ls[k] + (long) ds[k] + r.xs[k % 4] + r.xs.length;
            if (r.next != null) { sig = sig + r.next.i; }
        }
        Sys.println(sig);
        Sys.println(bs.length + is.length + ls.length + ds.length + rs.length);
        ` + body + `
    }
}
`
}

// TestRecordOpsTieredMatchesUntiered runs the page half of the instruction
// set with and without a disk tier: same output, the same null and bounds
// messages for every element kind, and — once the thread has released its
// managers — no pin left behind by any of the operations, including the
// ones that trapped. The spill-each-op leg then sends every page op through
// the fault path.
func TestRecordOpsTieredMatchesUntiered(t *testing.T) {
	run := func(src string, tiered bool) (string, error) {
		t.Helper()
		p2 := transform(t, compile(t, src), "Rec", "Main")
		var out bytes.Buffer
		cfg := Config{HeapSize: 8 << 20, Out: &out}
		if tiered {
			cfg.Tiering = &offheap.TierConfig{Dir: t.TempDir(), HighWater: 3, LowWater: 1}
		}
		m, err := New(p2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		th, err := m.NewThread(nil)
		if err != nil {
			t.Fatal(err)
		}
		_, runErr := th.Call("MainFacade.main")
		if tiered && runErr == nil && m.RT.Stats().PagesSpilled == 0 {
			t.Fatal("the tiered run never spilled: the watermark is not exercising the pinned path")
		}
		th.Close()
		m.rootScope.ReleaseAll()
		if pins := m.RT.Pins(); pins != 0 {
			t.Fatalf("%d pin(s) leaked (tiered=%v, err=%v)", pins, tiered, runErr)
		}
		return out.String(), runErr
	}
	cases := map[string]struct{ body, want string }{
		"clean":        {"", ""},
		"null-field-r": {"Rec z = rs[0].next; Sys.println(z.i);", "NullPointerException: record read i"},
		"null-field-w": {"Rec z = rs[0].next; z.d = 1.0;", "NullPointerException: record write d"},
		"null-arr-r":   {"int[] z = rs[0].next.xs; Sys.println(z[0]);", "NullPointerException: record read xs"},
		"null-arr-len": {"long[] z = null; Sys.println(z.length);", "NullPointerException: array record length"},
		"null-arr-w":   {"double[] z = null; z[0] = 1.0;", "NullPointerException: array record write"},
		"null-lock":    {"Rec z = rs[0].next; synchronized (z) { Sys.println(1); }", "NullPointerException: synchronized on null"},
		"bounds-byte":  {"Sys.println(bs[3000]);", "ArrayIndexOutOfBoundsException: index 3000, length 3000"},
		"bounds-int":   {"is[0 - 1] = 1;", "ArrayIndexOutOfBoundsException: index -1, length 3000"},
		"bounds-long":  {"Sys.println(ls[3001]);", "ArrayIndexOutOfBoundsException: index 3001, length 3000"},
		"bounds-dbl":   {"ds[4000] = 1.0;", "ArrayIndexOutOfBoundsException: index 4000, length 3000"},
		"bounds-ref":   {"Sys.println(rs[3000].i);", "ArrayIndexOutOfBoundsException: index 3000, length 3000"},
	}
	for name, c := range cases {
		name, c := name, c
		t.Run(name, func(t *testing.T) {
			src := recordOpsProgram(c.body)
			outU, errU := run(src, false)
			outT, errT := run(src, true)
			if outU != outT {
				t.Fatalf("output differs:\nuntiered: %q\ntiered:   %q", outU, outT)
			}
			if c.want == "" {
				if errU != nil || errT != nil {
					t.Fatalf("untiered err=%v, tiered err=%v", errU, errT)
				}
				if want := runMain(t, compile(t, src), 8<<20); outU != want {
					t.Fatalf("P' output %q, P output %q", outU, want)
				}
				return
			}
			if errU == nil || errU.Error() != c.want {
				t.Fatalf("untiered error %v, want %q", errU, c.want)
			}
			if errT == nil || errT.Error() != errU.Error() {
				t.Fatalf("tiered error %v, untiered %v", errT, errU)
			}
		})
	}
	var clean spillOpsResult
	t.Run("spill-each-op", func(t *testing.T) { clean = spillEachOp(t) })
	// The same legs on poisoned memory: every heap arena and page body,
	// fresh or reused, starts out filled with 0xAA, and the output and
	// per-op instruction counts must not move.
	t.Run("spill-each-op-poisoned", func(t *testing.T) {
		defer region.Poison(0xAA)()
		if got := spillEachOp(t); got.out != clean.out || !slices.Equal(got.instrs, clean.instrs) {
			t.Fatalf("poisoned memory changed the run:\nclean:    %q %v\npoisoned: %q %v", clean.out, clean.instrs, got.out, got.instrs)
		}
	})
}

// spillOpsProgram keeps a record of each shape the page ops distinguish in
// Main's statics, off any page a manager bump-allocates into, and gives
// every operation under test a method that performs it once.
const spillOpsProgram = `
class Rec { byte b; int i; long l; double d; Rec next; int get() { return this.i; } }
class Sub extends Rec { int get() { return this.i + 1; } }
class Main {
    static Rec r; static Rec s; static Rec chain; static String str;
    static byte[] bs; static int[] is; static long[] ls; static double[] ds; static Rec[] rs; static int[] to; static long[] big;
    static void setup(String x) {
        Main.str = x;
        Main.r = new Rec(); Main.r.b = (byte) 7; Main.r.i = 11; Main.r.l = 1000000007L; Main.r.d = 0.25; Main.r.next = Main.r;
        Main.s = new Sub(); Main.s.i = 20;
        Main.bs = new byte[20000]; Main.is = new int[5000]; Main.ls = new long[3000]; Main.ds = new double[3000];
        Main.rs = new Rec[3000]; Main.to = new int[5000];
        for (int k = 0; k < 3000; k = k + 1) { Main.bs[k] = (byte) k; Main.is[k] = k * 3; Main.ls[k] = 7L * k; Main.ds[k] = 0.5 * k; }
        Main.rs[1] = Main.s;
        // Fill the size class r, s and str came from: the page a manager
        // bump-allocates into stays pinned resident.
        for (int k = 0; k < 2000; k = k + 1) { Rec f = new Rec(); f.next = Main.chain; Main.chain = f; }
    }
    static void pload1() { Sys.println(Main.r.b); }
    static void pload4() { Sys.println(Main.r.i); }
    static void pload8() { Sys.println(Main.r.d); }
    static void pstore1() { Main.r.b = (byte) 9; }
    static void pstore4() { Main.r.i = 41; }
    static void pstore8() { Main.r.l = 99L; }
    static void paload1() { Sys.println(Main.bs[2999]); }
    static void paload4() { Sys.println(Main.is[2999]); }
    static void paload8() { Sys.println(Main.ds[2999]); }
    static void pastore1() { Main.bs[3] = (byte) 5; }
    static void pastore4() { Main.is[4] = 44; }
    static void pastore8() { Main.ls[5] = 55L; }
    static void palen() { Sys.println(Main.rs.length); }
    static void resolve() { Sys.println(Main.s.get()); }
    static void instof() { Sys.println(Main.s instanceof Sub); }
    static void cast() { Sub x = (Sub) Main.s; Sys.println(x.i); }
    static void boundsRead() { Sys.println(Main.is[5000]); }
    static void boundsWrite() { Main.rs[3000] = Main.r; }
    static void copy() { Sys.arraycopy(Main.is, 0, Main.to, 0, 100); Sys.println(Main.to[99]); }
    static void lock() { synchronized (Main.r) { Sys.println(Main.r.i); } }
    // An array of a page of its own spills r's page while r's monitor is
    // held, so the exit meets it on disk.
    static void unlock() { synchronized (Main.r) { Main.big = new long[3000]; } }
    static void print() { Sys.println(Main.str); }
    static void check() { Sys.println(Main.r.b + Main.r.i + Main.r.l + Main.bs[3] + Main.is[4] + Main.ls[5] + Main.rs[1].i); }
}`

// spillOpsVM builds spillOpsProgram's P' on a VM writing to out, tiered
// with a single resident page when spill is set, and runs Main.setup on a
// new thread. The returned spillAll faults in a page of its own, which
// spills every other unpinned page (nil when untiered).
func spillOpsVM(t *testing.T, p2 *ir.Program, out *bytes.Buffer, spill bool) (m *VM, th *Thread, spillAll func()) {
	t.Helper()
	cfg := Config{HeapSize: 8 << 20, Out: out}
	if spill {
		cfg.Tiering = &offheap.TierConfig{Dir: t.TempDir(), HighWater: 1, LowWater: 1}
	}
	m, err := New(p2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if th, err = m.NewThread(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := th.InvokeStatic("Main", "setup", S("spilled, then promoted")); err != nil {
		t.Fatal(err)
	}
	return m, th, spillAllFunc(t, m)
}

// spillAllFunc returns a function that spills every unpinned page of m's
// store by faulting in a page of its own, or nil when m is untiered.
func spillAllFunc(t *testing.T, m *VM) func() {
	if !m.RT.Tiered() {
		return nil
	}
	long, _ := m.Prog.ArrayTypes.Index("long")
	pad, err := m.rootScope.AllocArray(nil, long, 8, 3000)
	if err != nil {
		t.Fatal(err)
	}
	return func() {
		if err := m.RT.Fault(pad, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// spillOpsResult is what spillEachOp's legs agree on: the output and each
// op's instruction count.
type spillOpsResult struct {
	out    string
	instrs []int64
}

// spillEachOp runs each method of spillOpsProgram in three legs: on an
// untiered store; on a tiered one that spills every page it can before
// each call, so that each call's first record access meets its page on
// disk (the page opcodes through run's fault tail, arraycopy, the monitor
// ops and the string helpers through Thread.record and Resident); and on
// that tiered store with the call's first promotion failing. A failed call
// must return an error wrapping ErrPageExhausted with no pool lock held,
// and the call run again must behave as untiered. Output, trap texts and
// vm.instructions must match, so a restarted slot counts nothing twice.
func spillEachOp(t *testing.T) spillOpsResult {
	p2 := transform(t, compile(t, spillOpsProgram), "Rec", "Sub", "Main")
	ops := []struct {
		fn   string
		op   uint16 // the page opcode the method must contain; 0 for intrinsics
		want string
	}{
		{"pload1", xPLoad1, ""}, {"pload4", xPLoad4, ""}, {"pload8", xPLoad8, ""},
		{"pstore1", xPStore1, ""}, {"pstore4", xPStore4, ""}, {"pstore8", xPStore8, ""},
		{"paload1", xPALoad1, ""}, {"paload4", xPALoad4, ""}, {"paload8", xPALoad8, ""},
		{"pastore1", xPAStore1, ""}, {"pastore4", xPAStore4, ""}, {"pastore8", xPAStore8, ""},
		{"palen", xPALen, ""}, {"resolve", xResolve, ""},
		{"instof", xPInstOf, ""}, {"cast", xPCast, ""},
		{"boundsRead", xPALoad4, "ArrayIndexOutOfBoundsException: index 5000, length 5000"},
		{"boundsWrite", xPAStore8, "ArrayIndexOutOfBoundsException: index 3000, length 3000"},
		{"copy", 0, ""}, {"lock", xPMonEnter, ""}, {"unlock", xPMonExit, ""},
		{"print", 0, ""}, {"check", 0, ""},
	}
	const plain, spill, fail = "untiered", "spill", "fail"
	run := func(leg string) spillOpsResult {
		var out bytes.Buffer
		m, th, spillAll := spillOpsVM(t, p2, &out, leg != plain)
		instrs := func() int64 { return m.Obs().Snapshot().Counters[obs.CtrInstructions] }
		call := func(fn string) (int64, error) {
			if spillAll != nil {
				spillAll()
			}
			promoted, before := m.RT.Stats().PagesPromoted, instrs()
			_, err := th.InvokeStatic("Main", fn)
			if spillAll != nil && m.RT.Stats().PagesPromoted == promoted {
				t.Fatalf("%s (%s): no page was on disk when it ran", fn, leg)
			}
			return instrs() - before, err
		}
		var res spillOpsResult
		for _, o := range ops {
			fn := m.Func(ir.FuncKey("MainFacade", o.fn))
			if fn == nil {
				t.Fatalf("no MainFacade.%s", o.fn)
			}
			if o.op != 0 && !slices.ContainsFunc(fn.Code.Slots, func(s ir.Slot) bool { return s.Op == o.op }) {
				t.Fatalf("%s lowers to no %s slot:\n%s", o.fn, xopNames[o.op], disasm(fn))
			}
			if leg == fail {
				// The first promotion the call makes fails.
				spillAll()
				m.RT.SetFaultInjector(faults.New(&faults.Config{TierLoadAt: 1}))
				_, err := th.InvokeStatic("Main", o.fn)
				m.RT.SetFaultInjector(nil)
				if !errors.Is(err, offheap.ErrPageExhausted) {
					t.Fatalf("%s under a failed promotion: error %v, want one wrapping ErrPageExhausted", o.fn, err)
				}
				if n := m.Locks.InUse(); n != 0 {
					t.Fatalf("%s: %d pool lock(s) held after a failed promotion", o.fn, n)
				}
			}
			n, err := call(o.fn)
			res.instrs = append(res.instrs, n)
			msg := ""
			if err != nil {
				msg = err.Error()
			}
			if msg != o.want {
				t.Fatalf("%s (%s): error %q, want %q", o.fn, leg, msg, o.want)
			}
		}
		th.Close()
		m.rootScope.ReleaseAll()
		if pins, locks := m.RT.Pins(), m.Locks.InUse(); pins != 0 || locks != 0 {
			t.Fatalf("%s: %d pin(s) and %d pool lock(s) leaked", leg, pins, locks)
		}
		res.out = out.String()
		return res
	}
	want := run(plain)
	for _, leg := range []string{spill, fail} {
		got := run(leg)
		if got.out != want.out {
			t.Fatalf("output differs:\nuntiered: %q\n%s: %q", want.out, leg, got.out)
		}
		for i, o := range ops {
			if got.instrs[i] != want.instrs[i] {
				t.Fatalf("%s: %d instructions untiered, %d in the %s leg", o.fn, want.instrs[i], got.instrs[i], leg)
			}
		}
	}
	return want
}

// TestFailedPromotionLeavesNoLockHeld enters a monitor on a record whose
// page is on disk while the store fails its first promotion. The call must
// return the failure as an error wrapping ErrPageExhausted and leave no
// pool lock in use, the VM must reset for reuse, and the same call on the
// reset VM must print what an untiered run prints. Each step runs under a
// deadline: a pool mutex a failed promotion left locked blocks them all.
func TestFailedPromotionLeavesNoLockHeld(t *testing.T) {
	p2 := transform(t, compile(t, spillOpsProgram), "Rec", "Sub", "Main")
	within := func(what string, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			f()
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s did not return within 10s", what)
		}
	}
	var want bytes.Buffer
	_, th, _ := spillOpsVM(t, p2, &want, false)
	if _, err := th.InvokeStatic("Main", "lock"); err != nil {
		t.Fatal(err)
	}
	th.Close()

	var out bytes.Buffer
	m, th, spillAll := spillOpsVM(t, p2, &out, true)
	spillAll()
	m.RT.SetFaultInjector(faults.New(&faults.Config{TierLoadAt: 1}))
	var err error
	within("the failing call", func() { _, err = th.InvokeStatic("Main", "lock") })
	if !errors.Is(err, offheap.ErrPageExhausted) {
		t.Fatalf("synchronized on a spilled record under a failed promotion: %v, want an error wrapping ErrPageExhausted", err)
	}
	within("Locks.InUse", func() {
		if n := m.Locks.InUse(); n != 0 {
			t.Errorf("%d pool lock(s) in use after the failed call", n)
		}
	})
	th.Close()
	out.Reset()
	within("ResetForReuse", func() {
		err = m.ResetForReuse(ResetConfig{Out: &out,
			Tiering: &offheap.TierConfig{Dir: t.TempDir(), HighWater: 1, LowWater: 1}})
	})
	if err != nil {
		t.Fatal(err)
	}
	if th, err = m.NewThread(nil); err != nil {
		t.Fatal(err)
	}
	defer th.Close()
	if _, err := th.InvokeStatic("Main", "setup", S("spilled, then promoted")); err != nil {
		t.Fatal(err)
	}
	spillAllFunc(t, m)()
	within("the retry", func() { _, err = th.InvokeStatic("Main", "lock") })
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != want.String() {
		t.Fatalf("retry on the reset VM printed %q, the untiered run %q", out.String(), want.String())
	}
}

// stopSignal is a thread's Parker that reports when the thread asks for the
// world to stop and when the stopped world's work begins.
type stopSignal struct {
	parker
	requested, started chan struct{}
}

func (p stopSignal) StopTheWorld(f func()) {
	close(p.requested)
	p.parker.StopTheWorld(func() { close(p.started); f() })
}

// TestSpillWaitsForRunningThreads holds thread A inside a withArrBody
// callback — running, with a record's bytes in hand — while thread B
// allocates across the high watermark. B's spill must not start before A
// returns and parks, and A's writes through those bytes must survive it.
func TestSpillWaitsForRunningThreads(t *testing.T) {
	p2 := transform(t, compile(t, recordOpsProgram("")), "Rec", "Main")
	m, err := New(p2, Config{HeapSize: 8 << 20,
		Tiering: &offheap.TierConfig{Dir: t.TempDir(), HighWater: 2, LowWater: 1}})
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.NewThread(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := m.NewThread(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	const n = 5000 // a page of its own
	arr, err := a.NewIntArr(make([]int32, n))
	if err != nil {
		t.Fatal(err)
	}
	pk := stopSignal{parker{b}, make(chan struct{}), make(chan struct{})}
	done := make(chan error, 1)
	err = a.withArrBody(arr, 4*n, func(body []byte) {
		go func() {
			// Two more pages of their own put three over a high watermark
			// of two: the second allocation's end asks for a spill.
			b.enterBoundary()
			defer b.tc.BeginExternal()
			intArr, _ := m.Prog.ArrayTypes.Index("int")
			for i := 0; i < 2; i++ {
				if _, err := b.iter.Current().AllocArray(pk, intArr, 4, n); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		<-pk.requested
		select {
		case <-pk.started:
			t.Error("a spill started while thread A held record bytes")
		case <-time.After(50 * time.Millisecond):
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(body[4*i:], uint32(7*i))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	select {
	case <-pk.started:
	default:
		t.Fatal("thread B never spilled")
	}
	if m.RT.Bytes(offheap.PageRef(m.Get(arr))) != nil {
		t.Fatal("the spill left thread A's page resident: nothing was tested")
	}
	got, err := a.ReadIntArr(arr)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != int32(7*i) {
			t.Fatalf("element %d = %d after the spill, want %d", i, v, 7*i)
		}
	}
}

// TestResetForReuseSwitchesTier drives one warm VM through jobs that differ
// only in whether they ask for a disk tier, in both orders. The daemon pools
// VMs by program and heap size, not by tiering, so a VM built untiered must
// spill and fault pages back when its next job asks for a tier, and a VM
// built tiered must leave no tier behind for the job after.
func TestResetForReuseSwitchesTier(t *testing.T) {
	p2 := transform(t, compile(t, recordOpsProgram("")), "Rec", "Main")
	want := runMain(t, compile(t, recordOpsProgram("")), 8<<20)
	for _, order := range [][]bool{{false, true, false}, {true, false, true}} {
		t.Run(fmt.Sprint(order), func(t *testing.T) {
			tier := func(on bool) *offheap.TierConfig {
				if !on {
					return nil
				}
				return &offheap.TierConfig{Dir: t.TempDir(), HighWater: 3, LowWater: 1}
			}
			var out bytes.Buffer
			m, err := New(p2, Config{HeapSize: 8 << 20, Out: &out, Tiering: tier(order[0])})
			if err != nil {
				t.Fatal(err)
			}
			for job, tiered := range order {
				if job > 0 {
					out.Reset()
					if err := m.ResetForReuse(ResetConfig{Out: &out, Tiering: tier(tiered)}); err != nil {
						t.Fatalf("job %d: reset: %v", job, err)
					}
				}
				if m.RT.Tiered() != tiered {
					t.Fatalf("job %d: store tiered=%v, want %v", job, m.RT.Tiered(), tiered)
				}
				th, err := m.NewThread(nil)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := th.Call("MainFacade.main"); err != nil {
					t.Fatalf("job %d (tiered=%v): %v", job, tiered, err)
				}
				if spilled := m.RT.Stats().PagesSpilled; (spilled > 0) != tiered {
					t.Fatalf("job %d (tiered=%v): %d pages spilled", job, tiered, spilled)
				}
				th.Close()
				if out.String() != want {
					t.Fatalf("job %d (tiered=%v): output %q, want %q", job, tiered, out.String(), want)
				}
			}
		})
	}
}

// TestResetForReuseKeepsThePoolWarm runs the same job twice on one VM: the
// second job's pages must all come off the store's free list — the pool the
// daemon's warm path relies on survives the reset, and nothing else holds
// pages back from it.
func TestResetForReuseKeepsThePoolWarm(t *testing.T) {
	p2 := transform(t, compile(t, recordOpsProgram("")), "Rec", "Main")
	var out bytes.Buffer
	m, err := New(p2, Config{HeapSize: 8 << 20, Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	job := func() offheap.Stats {
		t.Helper()
		th, err := m.NewThread(nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := th.Call("MainFacade.main"); err != nil {
			t.Fatal(err)
		}
		th.Close()
		return m.RT.Stats()
	}
	cold := job()
	if cold.PagesCreated == 0 {
		t.Fatalf("first job created no pages: %+v", cold)
	}
	if err := m.ResetForReuse(ResetConfig{Out: &out}); err != nil {
		t.Fatal(err)
	}
	warm := job()
	if warm.PagesCreated != 0 {
		t.Fatalf("second job created %d page(s) on a warm store", warm.PagesCreated)
	}
	if acquires := cold.PagesCreated + cold.PagesRecycled; warm.PagesRecycled != acquires {
		t.Fatalf("second job recycled %d page(s), want all %d acquires", warm.PagesRecycled, acquires)
	}
}

// TestRegisterStacksAreRecycled: two live threads never share a register
// stack, a closed thread's stack serves the next NewThread, and a thread
// closed twice hands its stack over once. The concurrent leg, under -race,
// checks the hand-off between goroutines.
func TestRegisterStacksAreRecycled(t *testing.T) {
	p := compile(t, `
class Main {
    static void main() {
        long acc = 0L;
        for (int i = 0; i < 100; i = i + 1) { acc = acc + (long) i; }
    }
}`)
	m, err := New(p, Config{HeapSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	run := func() (*Thread, error) {
		th, err := m.NewThread(nil)
		if err != nil {
			return nil, err
		}
		if _, err := th.Call("Main.main"); err != nil {
			th.Close()
			return nil, err
		}
		return th, nil
	}
	must := func() *Thread {
		t.Helper()
		th, err := run()
		if err != nil {
			t.Fatal(err)
		}
		return th
	}
	a, b := must(), must()
	stackA := &a.stack[0]
	if stackA == &b.stack[0] {
		t.Fatal("two live threads share a register stack")
	}
	a.Close()
	a.Close()
	if n := len(m.spareStacks); n != 1 {
		t.Fatalf("closing a thread twice left %d spare stacks, want 1", n)
	}
	c, d := must(), must()
	if &c.stack[0] != stackA {
		t.Fatal("the next thread did not take the closed thread's stack")
	}
	if &d.stack[0] == stackA || &d.stack[0] == &b.stack[0] {
		t.Fatal("a stack was handed to two live threads")
	}
	for _, th := range []*Thread{b, c, d} {
		th.Close()
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				th, err := run()
				if err != nil {
					t.Error(err)
					return
				}
				th.Close()
			}
		}()
	}
	wg.Wait()
	if n := len(m.spareStacks); n > 4 {
		t.Fatalf("%d spare stacks, but at most 4 threads were ever live at once", n)
	}
}

// synchronizedSrc nests record monitors and draws Sys.rand inside them, so
// a warm run differs from a fresh one if the lock pool or the random
// stream leaks across ResetForReuse.
const synchronizedSrc = `
class Rec {
    long v;
    Rec(long v) { this.v = v; }
    void add(Rec o) {
        synchronized (this) {
            synchronized (o) {
                this.v = this.v + o.v + (long) Sys.rand(10);
            }
        }
    }
}
class Main {
    static void main() {
        Rec[] rs = new Rec[8];
        for (int i = 0; i < 8; i = i + 1) { rs[i] = new Rec((long) i); }
        long acc = 0L;
        for (int i = 0; i < 100; i = i + 1) {
            Rec a = rs[i % 8];
            a.add(rs[(i + 3) % 8]);
            acc = acc + a.v;
        }
        Sys.println(acc);
    }
}`

// TestWarmSynchronizedMatchesFresh runs a synchronized P' program twice on
// one warm VM: each run matches a fresh VM with the same seed in output,
// instructions and records, and the second run builds no pool lock.
func TestWarmSynchronizedMatchesFresh(t *testing.T) {
	p2 := transform(t, compile(t, synchronizedSrc), "Rec", "Main")
	type outcome struct {
		out             string
		instrs, records int64
	}
	job := func(m *VM, out *bytes.Buffer) outcome {
		t.Helper()
		th, err := m.NewThread(nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := th.Call("MainFacade.main"); err != nil {
			t.Fatal(err)
		}
		th.Close()
		return outcome{out.String(), m.Obs().Snapshot().Counters[obs.CtrInstructions], m.RT.Stats().Records}
	}
	fresh := func(seed int64) outcome {
		var out bytes.Buffer
		m, err := New(p2, Config{HeapSize: 8 << 20, Out: &out, RandSeed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return job(m, &out)
	}
	var out bytes.Buffer
	m, err := New(p2, Config{HeapSize: 8 << 20, Out: &out, RandSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	built, pool := 0, m.Locks
	for run, seed := range []int64{1, 2} {
		if run > 0 {
			out.Reset()
			if err := m.ResetForReuse(ResetConfig{Out: &out, RandSeed: seed}); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := job(m, &out), fresh(seed); got != want {
			t.Fatalf("run %d: warm %+v, fresh %+v", run, got, want)
		}
		if run == 0 {
			if built = m.Locks.Built(); built != 2 {
				t.Fatalf("nested monitors built %d pool locks, want 2", built)
			}
		} else if n := m.Locks.Built(); m.Locks != pool || n != built {
			t.Fatalf("the warm run rebuilt or grew the lock pool (%d locks, then %d)", built, n)
		}
	}
}
