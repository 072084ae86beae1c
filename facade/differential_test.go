package facade

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/vm"
)

// Differential P/P' battery: every program in the table runs as P and as
// the FACADE-transformed P' across a grid of runtime configurations
// (heap budget x GC mark workers x page tiering). The §3.7
// correctness oracle demands more than "P' matched P once":
//
//   - output is bit-identical between P and P' in every grid cell,
//   - output is identical ACROSS cells (heap budget and GC parallelism
//     are not allowed to be observable),
//   - traps (NPE, bounds, cast) surface identically in both programs,
//   - the inliner is invisible: the pair built through Build (inline, then
//     transform) prints the same output and fails with the same error text
//     as the un-inlined pair in every cell, and inlined P' allocates the
//     same records in the same native footprint.
//
// The engines' thread-count axis is covered by the engine differential
// tests (graphchi engine with 1 vs 4 workers, gps replay tests); FJ
// itself is single-threaded per run.

type diffProgram struct {
	name        string
	src         string
	dataClasses []string
	trap        string // non-empty: both P and P' must fail, message containing this
	trapP2      string // non-empty: P' must fail with this text instead of trap
	want        string // non-empty: the exact output every cell must print
}

var diffGrid = struct {
	heaps   []int
	workers []int
	tiers   []string
}{
	heaps:   []int{3 << 20, 32 << 20},
	workers: []int{1, 4},
	// The tiering axis pins the §3.7 oracle for the disk tier: "tight" runs P'
	// with a watermark small enough that pages spill and promote
	// constantly, and the output must not move. P is untransformed (no
	// pages), so the axis applies to P' only.
	tiers: []string{"off", "tight"},
}

// tierOpts returns the extra run options for one tiering mode. "tight"
// keeps at most 4 pages resident (evicting down to 2) so any page-count
// workload actually exercises spill and promote.
func tierOpts(t *testing.T, mode string) []Option {
	if mode == "off" {
		return nil
	}
	return []Option{WithTiering(t.TempDir(), 4)}
}

var diffPrograms = []diffProgram{
	{
		name: "list-churn-iterations",
		// Linked structures churned across explicit iterations: exercises
		// the TLAB fast path and write barrier in P, and page recycling
		// through the per-scope cache in P'.
		src: `
class Node { int v; Node next; Node(int v) { this.v = v; } }
class Main {
    static void main() {
        long total = 0L;
        for (int it = 0; it < 8; it = it + 1) {
            Sys.iterStart();
            Node head = null;
            for (int i = 0; i < 3000; i = i + 1) {
                Node n = new Node(i * (it + 1));
                n.next = head;
                head = n;
            }
            Node c = head;
            while (c != null) { total = total + c.v; c = c.next; }
            Sys.iterEnd();
        }
        Sys.println(total);
    }
}
`,
		dataClasses: []string{"Node", "Main"},
	},
	{
		name: "double-matrix",
		// Double arithmetic through arrays: the interpreter's inline
		// double fast path and conversions must agree bit-for-bit.
		src: `
class Main {
    static void main() {
        double[] m = new double[64];
        for (int i = 0; i < 64; i = i + 1) { m[i] = Sys.sqrt(i) * 0.5 + 1.0 / (i + 1); }
        double acc = 0.0;
        for (int r = 0; r < 100; r = r + 1) {
            for (int i = 0; i < 64; i = i + 1) { acc = acc + m[i] * m[63 - i]; }
        }
        Sys.println(acc);
        Sys.println((int) acc);
        Sys.println((long) (acc * 1000.0));
    }
}
class D { int x; }
`,
		dataClasses: []string{"D", "Main"},
	},
	{
		name: "collections-mixed",
		src: `
class K { int k; K(int k) { this.k = k; }
    int hashCode() { return this.k; }
    boolean equals(Object o) { if (!(o instanceof K)) { return false; } return ((K) o).k == this.k; } }
class Main {
    static void main() {
        HashMap m = new HashMap(4);
        ArrayList order = new ArrayList(4);
        for (int i = 0; i < 300; i = i + 1) {
            K key = new K(i % 97);
            if (m.get(key) == null) { order.add(key); }
            m.put(key, key);
        }
        Sys.println(m.size());
        Sys.println(order.size());
        long sig = 0L;
        for (int i = 0; i < order.size(); i = i + 1) { sig = sig * 31L + ((K) order.get(i)).k; }
        Sys.println(sig);
    }
}
`,
		dataClasses: []string{"K", "HashMap", "MapEntry", "ArrayList", "Main"},
	},
	{
		name: "stale-register-across-iterations",
		// r's register is dead after iteration 0 but stays a GC root, and
		// the later iterations force full collections (9 at the 3 MiB
		// heap) while it still holds the address. Placement that freed by
		// a lifetime proof rather than by reachability would hand the
		// collector a dangling root here.
		src: `
class Rec { long a; Rec(long a) { this.a = a; } }
class Main { static void main() {
    long acc = 0L;
    for (int it = 0; it < 3; it = it + 1) {
        Sys.iterStart();
        if (it == 0) { Rec pad = new Rec(1L); Rec r = new Rec(7L); acc = acc + r.a + pad.a; }
        else {
            long[] arr = new long[400];
            for (int i = 0; i < 400; i = i + 1) { arr[i] = 0L - 1L; }
            acc = acc + arr[3];
            for (int k = 0; k < 64; k = k + 1) { long[] big = new long[20000]; big[0] = k; acc = acc + big[0]; }
        }
        Sys.iterEnd();
    }
    Sys.println(acc);
} }
`,
		dataClasses: []string{"Rec", "Main"},
		want:        "4038\n",
	},
	{
		name: "forms-integer",
		// Every int and long opcode of the execution form, the fused
		// counted loop around them, and the unary ops.
		src: `
class Main {
    static void main() {
        int acc = 0;
        long lacc = 0L;
        for (int i = 1; i < 40; i = i + 1) {
            int j = 41 - i;
            acc = acc + (i + j) - (i * j) + (j / i) + (j % i) + (i & j) + (i | j) + (i ^ j) + (i << 3) + ((0 - j) >> 2);
            if (i < j) { acc = acc + 1; }
            if (i <= j) { acc = acc + 2; }
            if (i > j) { acc = acc + 4; }
            if (i >= j) { acc = acc + 8; }
            if (i == j) { acc = acc + 16; }
            if (i != j) { acc = acc + 32; }
            boolean odd = (i % 2) == 1;
            boolean low = i < j;
            if (!odd) { acc = -acc; }
            if (low) { acc = acc + 64; }
            long a = 1000000007L * i;
            long b = 998244353L * j;
            lacc = lacc + (a + b) - (a * b) + (b / a) + (b % a) + (a & b) + (a | b) + (a ^ b) + (a << 5) + ((0L - b) >> 7);
            if (a < b) { lacc = lacc + 1L; }
            if (a <= b) { lacc = lacc + 2L; }
            if (a > b) { lacc = lacc + 4L; }
            if (a >= b) { lacc = lacc + 8L; }
            if (a == b) { lacc = lacc + 16L; }
            if (a != b) { lacc = -lacc; }
        }
        Sys.println(acc);
        Sys.println(lacc);
        Sys.println((int) lacc);
        Sys.println((byte) acc);
    }
}
class D { int x; }
`,
		dataClasses: []string{"D", "Main"},
	},
	{
		name: "forms-double",
		// Every double opcode, the fused double compare-and-branch, and the
		// two intrinsics that run inline.
		src: `
class Main {
    static void main() {
        double acc = 0.0;
        int flags = 0;
        double d = 0.25;
        while (d < 9.0) {
            double e = 4.5 - d;
            acc = acc + d * e - d / (e + 10.0) + Sys.sqrt(d) + Sys.abs(e) + -e;
            if (d <= e) { flags = flags + 1; }
            if (d > e) { flags = flags + 2; }
            if (d >= e) { flags = flags + 4; }
            if (d == e) { flags = flags + 8; }
            if (d != e) { flags = flags + 16; }
            boolean low = d < e;
            d = d + 0.25;
            if (low) { flags = flags + 32; }
        }
        Sys.println(acc);
        Sys.println(flags);
        Sys.println((long) (acc * 1000.0));
        Sys.println(Sys.exp(1.0) + Sys.log(2.0));
    }
}
class D { int x; }
`,
		dataClasses: []string{"D", "Main"},
	},
	{
		name: "forms-objects",
		// Every slot width through fields and arrays, in both halves, and
		// the operations run executes off the side table: statics, string
		// literals, type tests, casts, monitors, array allocation; a
		// polymorphic receiver (resolve), a recursive monomorphic one
		// (receiver pool) and a data-typed parameter (parameter pool).
		src: `
class Shape { int id; int area() { return this.id; } }
class Sq extends Shape { int s; int area() { return this.s * this.s; } }
class Circ extends Shape { int r; int area() { return 3 * this.r * this.r; } }
class Rec {
    boolean flag; byte b; int i; long l; double d; Rec next; Shape sh;
    int depth() { if (this.next == null) { return 1; } return 1 + this.next.depth(); }
    int plus(Rec o) { if (o == null) { return this.i; } return this.i + o.i + this.plus(null); }
}
class Main {
    static int made;
    static long sum(long[] xs) { long t = 0L; for (int k = 0; k < xs.length; k = k + 1) { t = t + xs[k]; } return t; }
    static void bump() { Main.made = Main.made + 1; }
    static void main() {
        boolean[] fs = new boolean[6]; byte[] bs = new byte[6]; int[] is = new int[6];
        long[] ls = new long[6]; double[] ds = new double[6]; Rec[] rs = new Rec[6];
        Object lock = new Rec();
        Rec prev = null;
        for (int k = 0; k < 6; k = k + 1) {
            Rec r = new Rec();
            r.flag = (k % 2) == 0; r.b = (byte) (k - 3); r.i = k * 7; r.l = 1000000007L * k; r.d = 0.5 * k;
            r.next = prev;
            if (r.flag) { Sq q = new Sq(); q.s = k; r.sh = q; } else { Circ c = new Circ(); c.r = k; r.sh = c; }
            fs[k] = r.flag; bs[k] = r.b; is[k] = r.i; ls[k] = r.l; ds[k] = r.d; rs[k] = r;
            prev = r;
            synchronized (lock) { Main.bump(); }
        }
        long sig = 0L;
        for (int k = 0; k < rs.length; k = k + 1) {
            Rec r = rs[k];
            if (fs[k]) { sig = sig + 1L; }
            sig = sig * 31L + bs[k] + is[k] + ls[k] + (long) ds[k] + r.sh.area() + r.depth() + r.plus(r.next);
            Object o = r.sh;
            if (o instanceof Sq) { sig = sig + ((Sq) o).s; }
            if (r.flag) { sig = sig + r.b + (long) r.d; }
        }
        Sys.println(sig);
        Sys.println(Main.sum(ls));
        Sys.println(Main.made);
        Sys.println("done");
    }
}
`,
		dataClasses: []string{"Shape", "Sq", "Circ", "Rec", "Main"},
	},
	{
		name: "trap-npe",
		src: `
class Cell { int v; Cell next; }
class Main {
    static void main() {
        Cell c = new Cell();
        Sys.println(c.v);
        Cell gone = c.next;
        Sys.println(gone.v);
    }
}
`,
		dataClasses: []string{"Cell", "Main"},
		trap:        "NullPointerException",
	},
	{
		name: "trap-npe-inlined-receiver",
		// The null receiver of a call the inliner removes: the check that
		// takes the call's place must raise the call's own message.
		src: `
class Cell { int v; Cell next; int get() { return this.v; } }
class Main {
    static void main() {
        Cell c = new Cell();
        Sys.println(c.get());
        Cell gone = c.next;
        Sys.println(gone.get());
    }
}
`,
		dataClasses: []string{"Cell", "Main"},
		trap:        "NullPointerException",
	},
	{
		name: "trap-npe-devirtualized-receiver",
		// The null receiver of a monomorphic call that stays a call (depth
		// is recursive, so the inliner leaves it): P traps in the virtual
		// call, P' drawing the receiver facade by static type (§3.6).
		src: `
class Cell {
    Cell next;
    int depth() {
        if (this.next == null) { return 1; }
        return 1 + this.next.depth();
    }
}
class Main {
    static void main() {
        Cell c = new Cell();
        c.next = new Cell();
        Sys.println(c.depth());
        Cell gone = c.next.next;
        Sys.println(gone.depth());
    }
}
`,
		dataClasses: []string{"Cell", "Main"},
		trap:        "NullPointerException: virtual call depth",
		trapP2:      "NullPointerException: devirtualized call on null record",
	},
	{
		name: "trap-bounds",
		src: `
class Main {
    static void main() {
        int[] xs = new int[8];
        int i = 0;
        while (true) { xs[i] = i; i = i + 1; }
    }
}
class D { int x; }
`,
		dataClasses: []string{"D", "Main"},
		trap:        "IndexOutOfBounds",
	},
	{
		name: "trap-cast",
		src: `
class A { int x; }
class B { int y; }
class Main {
    static void main() {
        Object o = new A();
        Sys.println(1);
        B b = (B) o;
        Sys.println(b.y);
    }
}
`,
		dataClasses: []string{"A", "B", "Main"},
		trap:        "ClassCastException",
	},
}

// cellResult is what one program did in one grid cell.
type cellResult struct {
	out        string
	err        error
	records    int64 // page records allocated (P' only)
	nativePeak int64 // peak DRAM bytes of the page store (P' only)
}

// runCell executes one program in one grid cell (err is nil for clean
// completion). A P' cell, trapped or not, must close without a leak.
func runCell(t *testing.T, p *ir.Program, heapSize, gcWorkers int, extra ...Option) cellResult {
	t.Helper()
	opts := append([]Option{WithHeapSize(heapSize), WithGCWorkers(gcWorkers)}, extra...)
	res, err := Run(p, opts...)
	c := cellResult{err: err}
	if res != nil {
		c.out = res.Output()
		if res.VM.RT != nil {
			st := res.VM.RT.Stats()
			c.records, c.nativePeak = st.Records, st.PeakBytes
		}
		res.Close()
		if res.VM.RT != nil {
			noLeaks(t, fmt.Sprintf("P' cell heap=%dMiB,gcworkers=%d", heapSize>>20, gcWorkers), res.VM.RT)
		}
	}
	return c
}

// sameBehaviour requires the inlined run to be indistinguishable from the
// un-inlined one: output and error text.
func sameBehaviour(t *testing.T, cell, what string, plain, inlined cellResult) {
	t.Helper()
	if plain.out != inlined.out {
		t.Fatalf("[%s] inlining changed %s output:\nplain:   %q\ninlined: %q", cell, what, plain.out, inlined.out)
	}
	if (plain.err == nil) != (inlined.err == nil) || plain.err != nil && plain.err.Error() != inlined.err.Error() {
		t.Fatalf("[%s] inlining changed %s error:\nplain:   %v\ninlined: %v", cell, what, plain.err, inlined.err)
	}
}

func TestDifferentialBattery(t *testing.T) {
	for _, dp := range diffPrograms {
		dp := dp
		t.Run(dp.name, func(t *testing.T) { runBattery(t, dp) })
	}
}

// runBattery runs one battery program over the whole grid and checks the
// oracle. It returns one line per P cell (output, error) and per P' cell
// (output, error, records, native peak) so that whole battery runs can be
// compared.
func runBattery(t *testing.T, dp diffProgram) []string {
	t.Helper()
	var cells []string
	sources := map[string]string{"diff.fj": dp.src}
	prog, err := Compile(sources)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	p2, err := Transform(prog, TransformOptions{DataClasses: dp.dataClasses})
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	ip, ip2, err := Build(sources, dp.dataClasses)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	for _, q := range []*ir.Program{ip, ip2} {
		if err := analysis.VerifyProgram(q); err != nil {
			t.Fatalf("inlined program fails IR verification: %v", err)
		}
	}
	ref := ""
	first := true
	for _, heapSize := range diffGrid.heaps {
		for _, gcw := range diffGrid.workers {
			cellP := fmt.Sprintf("heap=%dMiB,gcworkers=%d", heapSize>>20, gcw)
			cP, cI := runCell(t, prog, heapSize, gcw), runCell(t, ip, heapSize, gcw)
			sameBehaviour(t, cellP, "P", cP, cI)
			cells = append(cells, fmt.Sprintf("%s P: %q %v", cellP, cP.out, cP.err))
			outP, errP := cP.out, cP.err
			for _, tier := range diffGrid.tiers {
				cell := fmt.Sprintf("%s,tier=%s", cellP, tier)
				cP2 := runCell(t, p2, heapSize, gcw, tierOpts(t, tier)...)
				cells = append(cells, fmt.Sprintf("%s: %q %v records=%d peak=%d", cell, cP2.out, cP2.err, cP2.records, cP2.nativePeak))
				cI2 := runCell(t, ip2, heapSize, gcw, tierOpts(t, tier)...)
				sameBehaviour(t, cell, "P'", cP2, cI2)
				// Inlining removes calls, never allocations. The
				// DRAM peak is only comparable untiered: a tight
				// watermark promotes on first touch, and the
				// removed resolve was a touch.
				if cP2.records != cI2.records || tier == "off" && cP2.nativePeak != cI2.nativePeak {
					t.Fatalf("[%s] inlining changed P' native work: records %d -> %d, peak bytes %d -> %d",
						cell, cP2.records, cI2.records, cP2.nativePeak, cI2.nativePeak)
				}
				outP2, errP2 := cP2.out, cP2.err
				if dp.trap == "" {
					if errP != nil {
						t.Fatalf("[%s] P failed: %v", cell, errP)
					}
					if errP2 != nil {
						t.Fatalf("[%s] P' failed: %v", cell, errP2)
					}
				} else {
					if errP == nil || !strings.Contains(errP.Error(), dp.trap) {
						t.Fatalf("[%s] P trap = %v, want %q", cell, errP, dp.trap)
					}
					trapP2 := dp.trapP2
					if trapP2 == "" {
						trapP2 = dp.trap
					}
					if errP2 == nil || !strings.Contains(errP2.Error(), trapP2) {
						t.Fatalf("[%s] P' trap = %v, want %q", cell, errP2, trapP2)
					}
					// Same trap class is required; the message detail may
					// differ (P' names facade twins and page records).
				}
				if outP != outP2 {
					t.Fatalf("[%s] output diverges:\nP:  %q\nP': %q", cell, outP, outP2)
				}
				if first {
					ref, first = outP, false
				} else if outP != ref {
					t.Fatalf("[%s] output depends on the grid cell:\nthis: %q\nref:  %q", cell, outP, ref)
				}
			}
		}
	}
	if dp.want != "" && ref != dp.want {
		t.Fatalf("output %q, want %q", ref, dp.want)
	}
	return cells
}

// TestBatteryReachesEveryOpcode is the static half of the battery's claim on
// the interpreter: every execution-form opcode occurs in the linked code of
// some battery program — as written or inlined, P or P' — so the grid above
// has executed (or, for a slot behind a trap, at least decoded) each case
// of the dispatch switch against its twin.
func TestBatteryReachesEveryOpcode(t *testing.T) {
	var seen [vm.NumOpcodes]bool
	for _, dp := range diffPrograms {
		sources := map[string]string{"diff.fj": dp.src}
		prog, err := Compile(sources)
		if err != nil {
			t.Fatalf("%s: compile: %v", dp.name, err)
		}
		p2, err := Transform(prog, TransformOptions{DataClasses: dp.dataClasses})
		if err != nil {
			t.Fatalf("%s: transform: %v", dp.name, err)
		}
		ip, ip2, err := Build(sources, dp.dataClasses)
		if err != nil {
			t.Fatalf("%s: build: %v", dp.name, err)
		}
		for _, q := range []*ir.Program{prog, p2, ip, ip2} {
			if _, err := vm.New(q, vm.Config{HeapSize: 1 << 20}); err != nil {
				t.Fatalf("%s: link: %v", dp.name, err)
			}
			for _, f := range q.FuncList {
				for _, s := range f.Code.Slots {
					seen[s.Op] = true
				}
			}
		}
	}
	for op := 1; op < vm.NumOpcodes; op++ {
		if !seen[op] {
			t.Errorf("opcode %d (internal/vm/lower.go numbers them) occurs in no battery program", op)
		}
	}
}

// TestDifferentialExamples runs every shipped examples/*/*.fj through the
// same grid. Vet picks the data classes the examples declare.
func TestDifferentialExamples(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "examples", "*", "*.fj"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 4 {
		t.Fatalf("expected at least 4 example programs, found %v", paths)
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			r, err := Vet(map[string]string{path: string(src)})
			if err != nil {
				t.Fatalf("vet: %v", err)
			}
			if !r.Clean() {
				t.Fatalf("vet not clean:\n%s", r.Report())
			}
			ref := ""
			first := true
			for _, heapSize := range []int{32 << 20, 64 << 20} {
				for _, gcw := range diffGrid.workers {
					cP := runCell(t, r.P, heapSize, gcw)
					outP, errP := cP.out, cP.err
					for _, tier := range diffGrid.tiers {
						cell := fmt.Sprintf("heap=%dMiB,gcworkers=%d,tier=%s", heapSize>>20, gcw, tier)
						cP2 := runCell(t, r.P2, heapSize, gcw, tierOpts(t, tier)...)
						outP2, errP2 := cP2.out, cP2.err
						if errP != nil || errP2 != nil {
							t.Fatalf("[%s] P err=%v, P' err=%v", cell, errP, errP2)
						}
						if outP != outP2 {
							t.Fatalf("[%s] output diverges:\nP:  %q\nP': %q", cell, outP, outP2)
						}
						if first {
							ref, first = outP, false
						} else if outP != ref {
							t.Fatalf("[%s] output depends on the grid cell", cell)
						}
					}
				}
			}
		})
	}
}

// TestObjectBoundScaleInvariance pins §3.3's claim directly: the number
// of heap objects of facade classes in P' is a function of the program
// (pool bounds x threads), not of the data size. Running 10x more data
// through the same program must allocate exactly the same number of
// facade objects.
func TestObjectBoundScaleInvariance(t *testing.T) {
	const tmpl = `
class Item { int v; Item next; Item(int v) { this.v = v; } }
class Main {
    static void main() {
        long sum = 0L;
        Item head = null;
        for (int i = 0; i < %d; i = i + 1) {
            Item x = new Item(i);
            x.next = head;
            head = x;
            sum = sum + x.v;
        }
        Sys.println(sum);
    }
}
`
	facadeAllocs := func(n int) map[string]int64 {
		src := fmt.Sprintf(tmpl, n)
		prog, err := Compile(map[string]string{"scale.fj": src})
		if err != nil {
			t.Fatal(err)
		}
		p2, err := Transform(prog, TransformOptions{DataClasses: []string{"Item", "Main"}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(p2, WithHeapSize(32<<20))
		if err != nil {
			t.Fatal(err)
		}
		defer res.Close()
		out := map[string]int64{}
		for cls, c := range res.Stats().ClassAllocs {
			if strings.HasSuffix(cls, "Facade") {
				out[cls] = c
			}
		}
		return out
	}
	small := facadeAllocs(500)
	large := facadeAllocs(5000)
	if len(small) == 0 {
		t.Fatal("no facade classes allocated; the bound check is vacuous")
	}
	for cls, c := range small {
		if large[cls] != c {
			t.Fatalf("facade allocs for %s scale with data: %d (n=500) vs %d (n=5000)", cls, c, large[cls])
		}
	}
}
