package vm

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/offheap"
)

// fillProgram exercises Sys.fillNew on a class with a field of each width,
// one of them inherited (AllFields puts Base.l first). The destination and
// the columns live in Main's statics, so a fill that traps leaves them for
// the next call to inspect; loop is the per-element conversion the
// intrinsic replaces, the reference for output and allocation counts.
const fillProgram = `
class Base { long l; }
class Rec extends Base { byte b; int i; double d; }
class Main {
    static Rec[] rs; static long[] ls; static byte[] bs; static int[] is; static double[] ds;
    static void setup(int n, int cols) {
        Main.ls = new long[cols]; Main.bs = new byte[cols]; Main.is = new int[cols]; Main.ds = new double[cols];
        for (int k = 0; k < cols; k = k + 1) {
            Main.ls[k] = 1000000007L * k - 3L; Main.bs[k] = (byte) (k * 37);
            Main.is[k] = k * 65521 - 7; Main.ds[k] = 0.1 * k - 1.5;
        }
        Main.rs = new Rec[n];
    }
    static void fill(int from) { Sys.fillNew(Main.rs, from, Main.ls, Main.bs, Main.is, Main.ds); }
    static void loop(int from) {
        for (int k = 0; k < Main.rs.length; k = k + 1) {
            Rec r = new Rec();
            r.l = Main.ls[from + k]; r.b = Main.bs[from + k]; r.i = Main.is[from + k]; r.d = Main.ds[from + k];
            Main.rs[k] = r;
        }
    }
    static void nullDst() { Rec[] z = null; Sys.fillNew(z, 0, Main.ls, Main.bs, Main.is, Main.ds); }
    static void nullCol() { int[] z = null; Sys.fillNew(Main.rs, 0, Main.ls, Main.bs, z, Main.ds); }
    static void shortCol() { int[] z = new int[2]; Sys.fillNew(Main.rs, 0, Main.ls, Main.bs, z, Main.ds); }
    static void dump() {
        int nulls = 0;
        for (int k = 0; k < Main.rs.length; k = k + 1) {
            Rec r = Main.rs[k];
            if (r == null) { nulls = nulls + 1; } else { Sys.println(r.l); Sys.println(r.b); Sys.println(r.i); Sys.println(r.d); }
        }
        Sys.println(nulls);
    }
}`

// fillCall is one boundary call of fillProgram: a static of Main with at
// most one int argument.
type fillCall struct {
	fn   string
	args []int64
}

func call(fn string, args ...int64) fillCall { return fillCall{fn, args} }

// fillResult is what one run of a call sequence did.
type fillResult struct {
	out  string
	errs []string // one per call, "" for none
	// objects and records count the run's heap objects and page records.
	objects, records int64
}

// fillPrograms returns P and P' of fillProgram, every class data.
func fillPrograms(t *testing.T) (*ir.Program, *ir.Program) {
	p := compile(t, fillProgram)
	return p, transform(t, p, "Base", "Rec", "Main")
}

// runFill runs calls in order on a fresh VM over p. during, when non-nil,
// runs around the call it names: before is called first, and its result is
// handed to after once the call returns.
func runFill(t *testing.T, p *ir.Program, cfg Config, calls []fillCall, during map[string]func(m *VM) func()) fillResult {
	t.Helper()
	var out bytes.Buffer
	cfg.Out = &out
	m, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	th, err := m.NewThread(nil)
	if err != nil {
		t.Fatal(err)
	}
	var res fillResult
	for _, c := range calls {
		var args []Arg
		for _, a := range c.args {
			args = append(args, I(a))
		}
		var after func()
		if hook := during[c.fn]; hook != nil {
			after = hook(m)
		}
		_, err := th.InvokeStatic("Main", c.fn, args...)
		if after != nil {
			after()
		}
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		res.errs = append(res.errs, msg)
	}
	th.Close()
	res.out = out.String()
	res.objects = m.Heap.Stats().AllocObjects
	if m.RT != nil {
		m.rootScope.ReleaseAll()
		res.records = m.RT.Stats().Records
		if pins := m.RT.Pins(); pins != 0 {
			t.Fatalf("%d pin(s) left after the run", pins)
		}
	}
	return res
}

// TestFillNewMatchesTheLoopItReplaces fills a destination from the middle
// of its columns on P and P' and compares each with the loop of news and
// field stores: the same output, bit for bit, and the same number of heap
// objects (P) and page records (P') — exactly one allocation per element.
func TestFillNewMatchesTheLoopItReplaces(t *testing.T) {
	p, p2 := fillPrograms(t)
	cfg := Config{HeapSize: 8 << 20}
	for _, n := range []int64{0, 1, 7, 600} {
		t.Run(fmt.Sprint("n=", n), func(t *testing.T) {
			from := int64(3)
			fill := []fillCall{call("setup", n, n+5), call("fill", from), call("dump")}
			loop := []fillCall{call("setup", n, n+5), call("loop", from), call("dump")}
			var outs []string
			for _, q := range []*ir.Program{p, p2} {
				f, l := runFill(t, q, cfg, fill, nil), runFill(t, q, cfg, loop, nil)
				for i, e := range append(f.errs, l.errs...) {
					if e != "" {
						t.Fatalf("transformed=%v: call %d: %s", q.Transformed, i, e)
					}
				}
				if f.out != l.out {
					t.Fatalf("transformed=%v: fill printed\n%s\nthe loop\n%s", q.Transformed, f.out, l.out)
				}
				if f.objects != l.objects || f.records != l.records {
					t.Fatalf("transformed=%v: fill made %d objects and %d records, the loop %d and %d",
						q.Transformed, f.objects, f.records, l.objects, l.records)
				}
				outs = append(outs, f.out)
			}
			if outs[0] != outs[1] {
				t.Fatalf("P printed\n%s\nP' printed\n%s", outs[0], outs[1])
			}
			if n == 0 && outs[0] != "0\n" {
				t.Fatalf("empty destination printed %q, want no elements and no nulls", outs[0])
			}
		})
	}
}

// TestFillNewTrapsLeaveTheDestinationUntouched runs each trap of
// Sys.fillNew on P and P': the texts are the same in both halves and name
// the array at fault, and dst still holds only nulls afterwards — every
// check runs before the first allocation.
func TestFillNewTrapsLeaveTheDestinationUntouched(t *testing.T) {
	p, p2 := fillPrograms(t)
	cases := []struct {
		call fillCall
		want string
	}{
		{call("nullDst"), "NullPointerException: fillNew destination"},
		{call("nullCol"), "NullPointerException: fillNew column i"},
		{call("fill", -1), "ArrayIndexOutOfBoundsException: fillNew column l [-1, 3) out of bounds for length 6"},
		{call("fill", 4), "ArrayIndexOutOfBoundsException: fillNew column l [4, 8) out of bounds for length 6"},
		{call("shortCol"), "ArrayIndexOutOfBoundsException: fillNew column i [0, 4) out of bounds for length 2"},
	}
	for _, c := range cases {
		t.Run(c.call.fn+fmt.Sprint(c.call.args), func(t *testing.T) {
			for _, q := range []*ir.Program{p, p2} {
				// dst has 4 slots and the columns 6; the fill traps, so
				// dump finds 4 nulls.
				r := runFill(t, q, Config{HeapSize: 4 << 20}, []fillCall{call("setup", 4, 6), c.call, call("dump")}, nil)
				if r.errs[1] != c.want {
					t.Fatalf("transformed=%v: error %q, want %q", q.Transformed, r.errs[1], c.want)
				}
				if r.out != "4\n" {
					t.Fatalf("transformed=%v: dst after the trap printed %q, want 4 nulls", q.Transformed, r.out)
				}
			}
		})
	}
}

// fillGCProgram's fill allocates more than the nursery has left after
// setup — n records of 80 bytes against a nursery that setup's columns,
// garbage and destination fill to within n/2 records of its end — while
// dst and both columns are small enough to be nursery objects themselves.
// The columns come first, so the records allocated after the collection
// reuse the nursery bytes they moved out of.
const fillGCProgram = `
class Wide { long a; long b; long c; long d; long e; long f; long g; long h; }
class Main {
    static Wide[] ws; static long[] xs; static long[] ys;
    static void setup(int n, int junks) {
        Main.xs = new long[n]; Main.ys = new long[n];
        for (int k = 0; k < n; k = k + 1) { Main.xs[k] = 7L * k + 1L; Main.ys[k] = 0L - 3L * k; }
        for (int k = 0; k < junks; k = k + 1) { Wide junk = new Wide(); }
        Main.ws = new Wide[n];
    }
    static void fill() {
        long[] x = Main.xs; long[] y = Main.ys;
        Sys.fillNew(Main.ws, 0, x, y, x, y, x, y, x, y);
    }
    static void dump() {
        int bad = 0;
        for (int k = 0; k < Main.ws.length; k = k + 1) {
            Wide w = Main.ws[k]; long x = Main.xs[k]; long y = Main.ys[k];
            if (w.a != x || w.b != y || w.c != x || w.d != y || w.e != x || w.f != y || w.g != x || w.h != y) { bad = bad + 1; }
        }
        Sys.println(bad);
    }
}`

// TestFillNewAcrossCollections fills on P's smallest heap so that the
// fill's own allocations collect while it runs: dst and both columns move
// out of the nursery mid-call, and every element must still hold its
// columns' values.
func TestFillNewAcrossCollections(t *testing.T) {
	p := compile(t, fillGCProgram)
	main := p.H.Class("Main")
	statics := []string{"ws", "xs", "ys"}
	cfg := Config{HeapSize: 1 << 20}
	probe, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The junk leaves the nursery room for half the fill's records, after
	// the columns and dst (three arrays of 2000 8-byte slots).
	const n, wide = 2000, 80
	nursery := probe.Heap.Obs().Snapshot().Gauges[obs.GaugeNurseryBytes]
	junks := (nursery - 3*(16+8*n) - n/2*wide) / wide
	r := runFill(t, p, cfg, []fillCall{call("setup", n, junks), call("fill"), call("dump")},
		map[string]func(m *VM) func(){
			"fill": func(m *VM) func() {
				st := m.Heap.Stats()
				gcs := st.MinorGCs + st.FullGCs
				var before []Value
				for _, s := range statics {
					before = append(before, m.statics[main.FindStatic(s).StaticIndex])
				}
				return func() {
					if st := m.Heap.Stats(); st.MinorGCs+st.FullGCs == gcs {
						t.Fatal("no collection ran during the fill")
					}
					for i, s := range statics {
						if m.statics[main.FindStatic(s).StaticIndex] == before[i] {
							t.Errorf("Main.%s did not move during the fill", s)
						}
					}
				}
			},
		})
	if strings.Join(r.errs, "") != "" {
		t.Fatalf("run: %q", r.errs)
	}
	if r.out != "0\n" {
		t.Fatalf("%s elements do not hold their columns' values", strings.TrimSpace(r.out))
	}
}

// TestFillNewAtATightWatermark fills on a tiered store that may keep two
// pages resident: the record allocations spill the pages of dst and the
// columns while the call holds their bytes, so the fill must resolve them
// again after the spill. The output matches an untiered store's, and no
// pin is left behind.
func TestFillNewAtATightWatermark(t *testing.T) {
	_, p2 := fillPrograms(t)
	// 3000 references outgrow half a page: dst gets a page of its own,
	// which no manager pins, so the fill's spills can take it too.
	const n = 3000
	calls := []fillCall{call("setup", n, n), call("fill", 0), call("dump")}
	want := runFill(t, p2, Config{HeapSize: 8 << 20}, calls, nil)
	tiered := Config{HeapSize: 8 << 20, Tiering: &offheap.TierConfig{Dir: t.TempDir(), HighWater: 2, LowWater: 1}}
	got := runFill(t, p2, tiered, calls, map[string]func(m *VM) func(){
		"fill": func(m *VM) func() {
			spills := m.RT.Spills()
			return func() {
				if m.RT.Spills() == spills {
					t.Fatal("no page spilled during the fill")
				}
			}
		},
	})
	if strings.Join(got.errs, "") != "" {
		t.Fatalf("tiered run: %q", got.errs)
	}
	if got.out != want.out || got.records != want.records {
		t.Fatalf("tiered fill printed %d bytes and made %d records, untiered %d and %d",
			len(got.out), got.records, len(want.out), want.records)
	}
}

// TestArraycopyTrapsNameTheArray pins the run-bounds texts of
// Sys.arraycopy on P and P': an overflow blames the array that overflowed,
// and a negative length blames neither.
func TestArraycopyTrapsNameTheArray(t *testing.T) {
	cases := []struct{ body, want string }{
		{"Sys.arraycopy(a, 8, b, 0, 3);", "ArrayIndexOutOfBoundsException: arraycopy source [8, 11) out of bounds for length 10"},
		{"Sys.arraycopy(a, 0 - 1, b, 0, 3);", "ArrayIndexOutOfBoundsException: arraycopy source [-1, 2) out of bounds for length 10"},
		{"Sys.arraycopy(a, 0, b, 2, 3);", "ArrayIndexOutOfBoundsException: arraycopy destination [2, 5) out of bounds for length 4"},
		{"Sys.arraycopy(a, 0, b, 0 - 2, 1);", "ArrayIndexOutOfBoundsException: arraycopy destination [-2, -1) out of bounds for length 4"},
		{"Sys.arraycopy(a, 0, b, 0, 0 - 1);", "ArrayIndexOutOfBoundsException: arraycopy length -1 is negative"},
	}
	for _, c := range cases {
		t.Run(c.body, func(t *testing.T) {
			p := compile(t, "class Main { static void main() { int[] a = new int[10]; int[] b = new int[4]; "+c.body+" } }")
			for _, q := range []*ir.Program{p, transform(t, p, "Main")} {
				m, err := New(q, Config{HeapSize: 4 << 20})
				if err != nil {
					t.Fatal(err)
				}
				th, err := m.NewThread(nil)
				if err != nil {
					t.Fatal(err)
				}
				_, err = th.InvokeStatic("Main", "main")
				th.Close()
				if err == nil || err.Error() != c.want {
					t.Fatalf("transformed=%v: err = %v, want %s", q.Transformed, err, c.want)
				}
			}
		})
	}
}
