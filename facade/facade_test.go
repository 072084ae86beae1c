package facade

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/offheap"
)

// runBoth compiles src, runs it as P, transforms it with the given data
// classes, runs P', and requires identical output; then it does the same
// through Build, whose inliner must change nothing observable. All four
// programs must also pass the IR verifier and the facade-safety linter —
// every corpus test is a standing regression gate for the static analyses.
// It returns the shared output.
func runBoth(t *testing.T, src string, dataClasses []string) string {
	t.Helper()
	sources := map[string]string{"test.fj": src}
	prog, err := Compile(sources)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	p2, err := Transform(prog, TransformOptions{DataClasses: dataClasses})
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	// The same program through Build: the inliner ran before the transform.
	ip, ip2, err := Build(sources, dataClasses)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	run := func(name string, p *ir.Program) (string, offheap.Stats) {
		t.Helper()
		if err := analysis.VerifyProgram(p); err != nil {
			t.Fatalf("verify %s: %v", name, err)
		}
		if fs := analysis.LintProgram(p); len(fs) > 0 {
			t.Fatalf("lint %s: %d finding(s), first: %s", name, len(fs), fs[0])
		}
		res, err := Run(p, WithHeapSize(32<<20))
		if err != nil {
			t.Fatalf("run %s: %v", name, err)
		}
		defer res.Close()
		var st offheap.Stats
		if res.VM.RT != nil {
			st = res.VM.RT.Stats()
		}
		return res.Output(), st
	}
	outP, _ := run("P", prog)
	outP2, st2 := run("P'", p2)
	if outP != outP2 {
		t.Fatalf("P and P' disagree.\nP:\n%s\nP':\n%s", outP, outP2)
	}
	// Inlining is pure mechanism: same output from both programs, and the
	// same records in the same native footprint from P'.
	if out, _ := run("inlined P", ip); out != outP {
		t.Fatalf("inlined P disagrees with P.\nP:\n%s\ninlined:\n%s", outP, out)
	}
	out, ist2 := run("inlined P'", ip2)
	if out != outP {
		t.Fatalf("inlined P' disagrees with P.\nP:\n%s\ninlined P':\n%s", outP, out)
	}
	if ist2.Records != st2.Records || ist2.PeakBytes != st2.PeakBytes {
		t.Fatalf("inlining changed P' native work: records %d -> %d, peak bytes %d -> %d",
			st2.Records, ist2.Records, st2.PeakBytes, ist2.PeakBytes)
	}
	return outP
}

func TestArithmeticEquivalence(t *testing.T) {
	src := `
class Main {
    static void main() {
        int a = 7;
        int b = -3;
        Sys.println(a + b);
        Sys.println(a * b);
        Sys.println(a / b);
        Sys.println(a % b);
        long l = 1234567890123L;
        Sys.println(l * 3L);
        double d = 1.5;
        Sys.println(d / 4.0);
        Sys.println(a < b);
        Sys.println((double) a);
        Sys.println((int) 3.99);
        int s = 1;
        for (int i = 0; i < 10; i = i + 1) { s = s * 2; }
        Sys.println(s);
    }
}
class Dummy { int x; }
`
	out := runBoth(t, src, []string{"Dummy", "Main"})
	want := "4\n-21\n-2\n1\n3703703670369\n0.375\nfalse\n7\n3\n1024\n"
	if out != want {
		t.Fatalf("got %q want %q", out, want)
	}
}

// TestPaperExample mirrors Figure 2: Professor/Student with an object
// graph manipulated through methods.
func TestPaperExample(t *testing.T) {
	src := `
class Student {
    int id;
    String name;
    Student(int id, String name) {
        this.id = id;
        this.name = name;
    }
}
class Professor {
    int id;
    Student[] students;
    String name;
    int numStudents;
    Professor(int id) {
        this.id = id;
        this.students = new Student[16];
        this.numStudents = 0;
    }
    void addStudent(Student s) {
        this.students[this.numStudents] = s;
        this.numStudents = this.numStudents + 1;
    }
    int total() { return this.numStudents; }
    Student get(int i) { return this.students[i]; }
}
class Main {
    static void main() {
        Professor f = new Professor(1254);
        Student s = new Student(9, "alice");
        Professor p = f;
        Student t = s;
        p.addStudent(t);
        p.addStudent(new Student(10, "bob"));
        Sys.println(p.total());
        Sys.println(p.get(0).name);
        Sys.println(p.get(1).name);
        Sys.println(p.get(1).id);
        Object o = p.get(0);
        Sys.println(o instanceof Student);
        Sys.println(o instanceof Professor);
        Student back = (Student) o;
        Sys.println(back.id);
        Sys.println(back.equals(t));
        Sys.println(back.equals(p.get(1)));
    }
}
`
	out := runBoth(t, src, []string{"Professor", "Student", "Main"})
	want := "2\nalice\nbob\n10\ntrue\nfalse\n9\ntrue\nfalse\n"
	if out != want {
		t.Fatalf("got %q want %q", out, want)
	}
}

func TestAllocationChurnEquivalence(t *testing.T) {
	// Allocate far more objects than fit in the nursery so the collector
	// (P) and page recycling (P') both engage.
	src := `
class Node {
    int val;
    Node next;
    Node(int v) { this.val = v; }
}
class Main {
    static void main() {
        long sum = 0L;
        for (int iter = 0; iter < 20; iter = iter + 1) {
            Sys.iterStart();
            Node head = null;
            for (int i = 0; i < 2000; i = i + 1) {
                Node n = new Node(i);
                n.next = head;
                head = n;
            }
            Node c = head;
            while (c != null) {
                sum = sum + c.val;
                c = c.next;
            }
            Sys.iterEnd();
        }
        Sys.println(sum);
    }
}
`
	out := runBoth(t, src, []string{"Node", "Main"})
	if out != "39980000\n" {
		t.Fatalf("got %q", out)
	}
}

func TestVirtualDispatchAndInterfaces(t *testing.T) {
	src := `
interface Shape { double area(); }
class Rect implements Shape {
    double w;
    double h;
    Rect(double w, double h) { this.w = w; this.h = h; }
    double area() { return this.w * this.h; }
}
class Square extends Rect {
    Square(double s) { this.w = s; this.h = s; }
    double area() { return this.w * this.w; }
}
class Main {
    static void main() {
        Shape[] shapes = new Shape[3];
        shapes[0] = new Rect(2.0, 3.0);
        shapes[1] = new Square(4.0);
        shapes[2] = new Rect(1.0, 10.0);
        double total = 0.0;
        for (int i = 0; i < shapes.length; i = i + 1) {
            total = total + shapes[i].area();
        }
        Sys.println(total);
        Sys.println(shapes[1] instanceof Square);
        Sys.println(shapes[0] instanceof Square);
        Rect r = (Rect) shapes[1];
        Sys.println(r.area());
    }
}
`
	out := runBoth(t, src, []string{"Rect", "Square", "Main"})
	want := "32\ntrue\nfalse\n16\n"
	if out != want {
		t.Fatalf("got %q want %q", out, want)
	}
}

func TestStringsAndCollections(t *testing.T) {
	src := `
class Main {
    static void main() {
        HashMap m = new HashMap(8);
        m.put("apple", new Counter());
        m.put("banana", new Counter());
        Counter c = (Counter) m.get("apple");
        c.inc();
        c.inc();
        Counter b = (Counter) m.get("banana");
        b.inc();
        Sys.println(((Counter) m.get("apple")).n);
        Sys.println(((Counter) m.get("banana")).n);
        Sys.println(m.get("cherry") == null);
        Sys.println(m.size());
        String s = "hello";
        Sys.println(s.length());
        Sys.println(s.hashCode());
        Sys.println(s.equals("hello"));
        Sys.println(s.equals("world"));
        Sys.println(s);
    }
}
class Counter {
    int n;
    void inc() { this.n = this.n + 1; }
}
`
	out := runBoth(t, src, []string{"Counter", "HashMap", "MapEntry", "ArrayList", "Main"})
	want := "2\n1\ntrue\n2\n5\n99162322\ntrue\nfalse\nhello\n"
	if out != want {
		t.Fatalf("got %q want %q", out, want)
	}
}

func TestSynchronizedEquivalence(t *testing.T) {
	src := `
class Box {
    int v;
    void bump() {
        synchronized (this) {
            this.v = this.v + 1;
        }
    }
}
class Main {
    static void main() {
        Box b = new Box();
        for (int i = 0; i < 100; i = i + 1) { b.bump(); }
        synchronized (b) {
            Sys.println(b.v);
        }
    }
}
`
	out := runBoth(t, src, []string{"Box", "Main"})
	if out != "100\n" {
		t.Fatalf("got %q", out)
	}
}

func TestObjectBoundHolds(t *testing.T) {
	// The headline property: in P', the number of live data-class heap
	// objects is the facade count, independent of how many records exist.
	src := `
class Item {
    int v;
    Item(int v) { this.v = v; }
    int get() { return this.v; }
}
class Main {
    static void main() {
        long sum = 0L;
        Item[] items = new Item[5000];
        for (int i = 0; i < 5000; i = i + 1) {
            items[i] = new Item(i);
        }
        for (int i = 0; i < 5000; i = i + 1) {
            sum = sum + items[i].get();
        }
        Sys.println(sum);
    }
}
`
	prog, err := Compile(map[string]string{"test.fj": src})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	p2, err := Transform(prog, TransformOptions{DataClasses: []string{"Item", "Main"}})
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	res, err := Run(p2, WithHeapSize(32<<20))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	defer res.Close()
	if out := res.Output(); out != "12497500\n" {
		t.Fatalf("got %q", out)
	}
	// Count heap allocations of the facade class for Item: bounded by the
	// pool size, not by the 5000 records.
	h := p2.H
	fc := h.Class("ItemFacade")
	if fc == nil {
		t.Fatal("no ItemFacade class")
	}
	n := res.VM.Heap.ClassAllocCount(fc)
	bound := int64(p2.Bounds["Item"] + 1) // param pool + receiver
	if n == 0 || n > bound {
		t.Fatalf("ItemFacade heap objects = %d, want 1..%d", n, bound)
	}
	// And the original Item class must never be heap-allocated by P'.
	if oc := h.Class("Item"); res.VM.Heap.ClassAllocCount(oc) != 0 {
		t.Fatalf("P' allocated %d heap Items", res.VM.Heap.ClassAllocCount(oc))
	}
	if res.VM.RT.Stats().Records < 5000 {
		t.Fatalf("expected >=5000 page records, got %d", res.VM.RT.Stats().Records)
	}
}

func TestTransformRejectsViolations(t *testing.T) {
	src := `
class Control { int x; }
class Data {
    Control c;
}
class Main {
    static void main() { Sys.println(1); }
}
`
	prog, err := Compile(map[string]string{"test.fj": src})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	_, err = Transform(prog, TransformOptions{DataClasses: []string{"Data"}, NoAutoClose: true})
	if err == nil || !strings.Contains(err.Error(), "reference-closed-world") {
		t.Fatalf("expected reference-closed-world violation, got %v", err)
	}
}
