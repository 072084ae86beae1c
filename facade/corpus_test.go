package facade

import "testing"

// Additional hand-written corpus: each program targets a specific feature
// interaction of the transform. All run as P and P' and must agree.

func TestRecursionEquivalence(t *testing.T) {
	src := `
class Tree {
    int v;
    Tree left;
    Tree right;
    Tree(int v) { this.v = v; }
    int sum() {
        int s = this.v;
        if (this.left != null) { s = s + this.left.sum(); }
        if (this.right != null) { s = s + this.right.sum(); }
        return s;
    }
    int depth() {
        int l = 0;
        int r = 0;
        if (this.left != null) { l = this.left.depth(); }
        if (this.right != null) { r = this.right.depth(); }
        if (l > r) { return l + 1; }
        return r + 1;
    }
}
class Main {
    static Tree build(int depth, int base) {
        Tree t = new Tree(base);
        if (depth > 0) {
            t.left = Main.build(depth - 1, base * 2);
            t.right = Main.build(depth - 1, base * 2 + 1);
        }
        return t;
    }
    static void main() {
        Tree t = Main.build(10, 1);
        Sys.println(t.sum());
        Sys.println(t.depth());
    }
}
`
	// 2^11-1 nodes labeled 1..2047 heap-style: sum = 2047*2048/2.
	out := runBoth(t, src, []string{"Tree", "Main"})
	if out != "2096128\n11\n" {
		t.Fatalf("got %q", out)
	}
}

// TestMixedInterfaceImplementors covers the paper's explicit allowance:
// "both a data class and a non-data class implement the same Java
// interface". The data class gets an IFacade twin used inside the data
// path; the control class keeps the original interface and its code is
// untouched. (Passing a control implementor INTO the data path would
// violate the closed-world model and require refactoring, per §3.1.)
func TestMixedInterfaceImplementors(t *testing.T) {
	src := `
interface Sized { int size(); }
class DataBuf implements Sized {
    int n;
    DataBuf(int n) { this.n = n; }
    int size() { return this.n; }
}
class CtlBuf implements Sized {
    int size() { return 77; }
}
class CtlDriver {
    static int measure(Sized s) { return s.size(); }
    static int measureCtl() {
        CtlBuf c = new CtlBuf();
        return CtlDriver.measure(c);
    }
}
class Main {
    static int viaIface(Sized s) { return s.size(); }
    static void main() {
        DataBuf d = new DataBuf(5);
        Sys.println(d.size());
        Sys.println(Main.viaIface(d));
        Sys.println(CtlDriver.measureCtl());
    }
}
`
	out := runBoth(t, src, []string{"DataBuf", "Main"})
	if out != "5\n5\n77\n" {
		t.Fatalf("got %q", out)
	}
}

func TestStaticFieldsAcrossTransform(t *testing.T) {
	src := `
class Reg {
    static int count;
    static Reg last;
    int v;
    Reg(int v) {
        this.v = v;
        Reg.count = Reg.count + 1;
        Reg.last = this;
    }
}
class Main {
    static void main() {
        for (int i = 0; i < 10; i = i + 1) {
            Reg r = new Reg(i * i);
        }
        Sys.println(Reg.count);
        Sys.println(Reg.last.v);
    }
}
`
	out := runBoth(t, src, []string{"Reg", "Main"})
	if out != "10\n81\n" {
		t.Fatalf("got %q", out)
	}
}

func TestNestedArraysEquivalence(t *testing.T) {
	src := `
class Main {
    static void main() {
        int[][] grid = new int[4][];
        for (int i = 0; i < 4; i = i + 1) {
            grid[i] = new int[4];
            for (int j = 0; j < 4; j = j + 1) {
                grid[i][j] = i * 10 + j;
            }
        }
        int trace = 0;
        for (int i = 0; i < 4; i = i + 1) { trace = trace + grid[i][i]; }
        Sys.println(trace);
        long[] ls = new long[3];
        ls[1] = 1234567890123L;
        Sys.println(ls[0] + ls[1]);
        double[][] m = new double[2][];
        m[0] = new double[2];
        m[1] = m[0];
        m[0][1] = 2.5;
        Sys.println(m[1][1]);
        boolean[] bs = new boolean[2];
        bs[1] = true;
        Sys.println(bs[0]);
        Sys.println(bs[1]);
    }
}
class D { int x; }
`
	out := runBoth(t, src, []string{"D", "Main"})
	if out != "66\n1234567890123\n2.5\nfalse\ntrue\n" {
		t.Fatalf("got %q", out)
	}
}

func TestStringHeavyEquivalence(t *testing.T) {
	src := `
class Main {
    static void main() {
        String[] words = new String[4];
        words[0] = "delta";
        words[1] = "alpha";
        words[2] = "charlie";
        words[3] = "bravo";
        // Selection sort by compareTo.
        for (int i = 0; i < words.length; i = i + 1) {
            int min = i;
            for (int j = i + 1; j < words.length; j = j + 1) {
                if (words[j].compareTo(words[min]) < 0) { min = j; }
            }
            String t = words[i];
            words[i] = words[min];
            words[min] = t;
        }
        for (int i = 0; i < words.length; i = i + 1) {
            Sys.println(words[i]);
        }
        Sys.println(words[0].charAt(0));
        Sys.println(words[1].length());
    }
}
`
	out := runBoth(t, src, []string{"Main"})
	if out != "alpha\nbravo\ncharlie\ndelta\n97\n5\n" {
		t.Fatalf("got %q", out)
	}
}

func TestIterationScopedRecordsWithLongLivedRoots(t *testing.T) {
	// Records created before any iteration live in the default manager
	// and survive every iteration end (§3.6).
	src := `
class Acc {
    long total;
    void add(long v) { this.total = this.total + v; }
}
class Item {
    int v;
    Item(int v) { this.v = v; }
}
class Main {
    static void main() {
        Acc acc = new Acc();
        for (int it = 0; it < 5; it = it + 1) {
            Sys.iterStart();
            for (int i = 0; i < 1000; i = i + 1) {
                Item x = new Item(i);
                acc.add(x.v);
            }
            Sys.iterEnd();
        }
        Sys.println(acc.total);
    }
}
`
	out := runBoth(t, src, []string{"Acc", "Item", "Main"})
	if out != "2497500\n" {
		t.Fatalf("got %q", out)
	}
}

func TestObjectMethodsOnDataReceivers(t *testing.T) {
	// equals/hashCode inherited from Object must work through the Facade
	// base class in P'.
	src := `
class Thing {
    int id;
    Thing(int id) { this.id = id; }
}
class Named {
    int id;
    Named(int id) { this.id = id; }
    boolean equals(Object o) {
        if (!(o instanceof Named)) { return false; }
        Named n = (Named) o;
        return n.id == this.id;
    }
    int hashCode() { return this.id; }
}
class Main {
    static void main() {
        Thing a = new Thing(1);
        Thing b = new Thing(1);
        Sys.println(a.equals(a));
        Sys.println(a.equals(b));
        Sys.println(a.hashCode());
        Named x = new Named(9);
        Named y = new Named(9);
        Sys.println(x.equals(y));
        Sys.println(x.hashCode());
        Object o = x;
        Sys.println(o.equals(a));
    }
}
`
	out := runBoth(t, src, []string{"Thing", "Named", "Main"})
	if out != "true\nfalse\n0\ntrue\n9\nfalse\n" {
		t.Fatalf("got %q", out)
	}
}

func TestHashMapResizeUnderTransform(t *testing.T) {
	// Force several HashMap resizes (collection data classes, §3.1).
	src := `
class Key {
    int k;
    Key(int k) { this.k = k; }
    int hashCode() { return this.k * 31; }
    boolean equals(Object o) {
        if (!(o instanceof Key)) { return false; }
        return ((Key) o).k == this.k;
    }
}
class Val { int v; Val(int v) { this.v = v; } }
class Main {
    static void main() {
        HashMap m = new HashMap(4);
        for (int i = 0; i < 500; i = i + 1) {
            m.put(new Key(i), new Val(i * 3));
        }
        Sys.println(m.size());
        int hits = 0;
        for (int i = 0; i < 500; i = i + 1) {
            Val v = (Val) m.get(new Key(i));
            if (v != null && v.v == i * 3) { hits = hits + 1; }
        }
        Sys.println(hits);
        Sys.println(m.get(new Key(1000)) == null);
    }
}
`
	out := runBoth(t, src, []string{"Key", "Val", "HashMap", "MapEntry", "ArrayList", "Main"})
	if out != "500\n500\ntrue\n" {
		t.Fatalf("got %q", out)
	}
}

// TestConversionRoundTrip drives data through both synthesized conversion
// functions (§3.5): a control-path Box holds a data-typed field, so the
// transformed data path must convert page records to heap objects when
// storing into it (case 3.3) and heap objects back to page records when
// loading from it (case 4.3) — including a nested array field.
func TestConversionRoundTrip(t *testing.T) {
	src := `
class D {
    int v;
    int[] samples;
    D sibling;
    D(int v) {
        this.v = v;
        this.samples = new int[3];
        this.samples[0] = v * 10;
        this.samples[2] = v * 30;
    }
}
class Box {
    D d;
}
class Worker {
    void produce(Box b, int v) {
        D x = new D(v);
        x.sibling = new D(v + 100);
        b.d = x;              // exit point: record graph -> heap objects
    }
    int consume(Box b) {
        D x = b.d;            // entry point: heap objects -> record graph
        int s = x.v + x.samples[0] + x.samples[2];
        if (x.sibling != null) { s = s + x.sibling.v; }
        return s;
    }
}
class Main {
    static void main() {
        Box b = new Box();
        Worker w = new Worker();
        w.produce(b, 7);
        Sys.println(b.d == null);
        Sys.println(w.consume(b));
        w.produce(b, 9);
        Sys.println(w.consume(b));
    }
}
`
	out := runBoth(t, src, []string{"D", "Worker", "Main"})
	// 7 + 70 + 210 + 107 = 394; 9 + 90 + 270 + 109 = 478.
	if out != "false\n394\n478\n" {
		t.Fatalf("got %q", out)
	}
}

// TestGCMovesFacadesMidFlight forces collections in the middle of the
// transformed data path: a control-path helper churns the heap (facades
// and control objects move), after which the data path keeps using its
// bound facades and page records. The pageRef longs must travel with the
// moving facade objects.
func TestGCMovesFacadesMidFlight(t *testing.T) {
	src := `
class CtlChurn {
    static int churn(int n) {
        int acc = 0;
        for (int i = 0; i < n; i = i + 1) {
            int[] garbage = new int[64];
            garbage[0] = i;
            acc = acc + garbage[0];
        }
        return acc;
    }
}
class Rec {
    int v;
    Rec next;
    Rec(int v) { this.v = v; }
    int walk() {
        int s = 0;
        Rec c = this;
        while (c != null) {
            s = s + c.v;
            c = c.next;
        }
        return s;
    }
}
class Main {
    static void main() {
        Rec head = null;
        for (int i = 0; i < 100; i = i + 1) {
            Rec r = new Rec(i);
            r.next = head;
            head = r;
        }
        int before = head.walk();
        // Control-path churn: with a small heap this runs several
        // collections while head's record chain is live.
        int noise = CtlChurn.churn(20000);
        int after = head.walk();
        Sys.println(before);
        Sys.println(after);
        Sys.println(before == after);
        Sys.println(noise);
    }
}
`
	prog, err := Compile(map[string]string{"t.fj": src})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Transform(prog, TransformOptions{DataClasses: []string{"Rec", "Main"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p2, WithHeapSize(2<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	want := "4950\n4950\ntrue\n199990000\n"
	if out := res.Output(); out != want {
		t.Fatalf("got %q want %q", out, want)
	}
	hs := res.VM.Heap.Stats()
	if hs.MinorGCs+hs.FullGCs == 0 {
		t.Fatal("churn did not trigger collections; the test is vacuous")
	}
}

func TestOversizeEarlyReleaseSemanticsAndReclamation(t *testing.T) {
	// Sys.release is a semantic no-op (P and P' agree) but lets P' drop
	// superseded oversize arrays before the iteration ends (§3.6,
	// optimization 3) — exercised here through ArrayList growth well past
	// the 32 KB page size.
	src := `
class Item { int v; Item(int v) { this.v = v; } }
class Main {
    static void main() {
        ArrayList xs = new ArrayList(4);
        for (int i = 0; i < 20000; i = i + 1) {
            xs.add(new Item(i));
        }
        long sum = 0L;
        for (int i = 0; i < xs.size(); i = i + 1) {
            Item it = (Item) xs.get(i);
            sum = sum + it.v;
        }
        Sys.println(sum);
    }
}
`
	classes := []string{"Item", "ArrayList", "HashMap", "MapEntry", "Main"}
	out := runBoth(t, src, classes)
	if out != "199990000\n" {
		t.Fatalf("got %q", out)
	}
	// Reclamation: without early release, every doubling generation of
	// the backing array (4, 8, ..., 32768 slots => ~500 KB total) stays
	// until iteration end; with it, only the final generation's pages
	// remain oversize-live.
	prog, err := Compile(map[string]string{"t.fj": src})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Transform(prog, TransformOptions{DataClasses: classes})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p2, WithHeapSize(32<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	st := res.VM.RT.Stats()
	// Live bytes: 20000 records (~16 B) + final 32768-slot array (256 KB)
	// + pages. Superseded arrays (4..16384 slots, ~260 KB of oversize)
	// must be gone.
	finalArray := int64(32768 * 8)
	if st.BytesInUse > finalArray+int64(20000*24)+int64(64*32<<10) {
		t.Fatalf("bytes in use %d suggests superseded arrays were not released", st.BytesInUse)
	}
}
