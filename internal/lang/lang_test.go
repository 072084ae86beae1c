package lang

import (
	"strings"
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, src string) *File {
	t.Helper()
	f, err := Parse("t.fj", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f
}

func buildChecked(t *testing.T, src string) *Hierarchy {
	t.Helper()
	f := mustParse(t, "class Object { }\n"+src)
	h, err := BuildHierarchy(f)
	if err != nil {
		t.Fatalf("hierarchy: %v", err)
	}
	if err := Check(h); err != nil {
		t.Fatalf("check: %v", err)
	}
	return h
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("t", `class Foo { int x = 42; } // comment
/* block */ "str\n" 1.5 10L <= >> && !=`)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []TokKind{TokClass, TokIdent, TokLBrace, TokIntKw, TokIdent,
		TokAssign, TokIntLit, TokSemi, TokRBrace, TokStringLit,
		TokDoubleLit, TokLongLit, TokLe, TokShr, TokAndAnd, TokNe, TokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens, want %d", len(toks), len(kinds))
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Fatalf("token %d: got %v want %v", i, toks[i].Kind, k)
		}
	}
	if toks[9].Text != "str\n" {
		t.Fatalf("string literal %q", toks[9].Text)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{`"unterminated`, "/* open", `"bad \q esc"`, "#"} {
		if _, err := Lex("t", src); err == nil {
			t.Fatalf("no error for %q", src)
		}
	}
}

func TestLexerNeverPanics(t *testing.T) {
	f := func(s string) bool {
		lx := NewLexer("f", s)
		for i := 0; i < len(s)+2; i++ {
			tok, err := lx.Next()
			if err != nil {
				return true
			}
			if tok.Kind == TokEOF {
				return true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestParseClassStructure(t *testing.T) {
	f := mustParse(t, `
interface Runnable { void run(); }
class A extends B implements Runnable, Comparable {
    static int counter;
    double[] values;
    A(int x) { this.y = x; }
    void run() { }
    static A make() { return new A(3); }
}
interface Comparable { int compareTo(Object o); }
class B { int y; }
`)
	if len(f.Classes) != 2 || len(f.Ifaces) != 2 {
		t.Fatalf("classes=%d ifaces=%d", len(f.Classes), len(f.Ifaces))
	}
	a := f.Classes[0]
	if a.Extends != "B" || len(a.Implements) != 2 || a.Ctor == nil {
		t.Fatal("class A header misparsed")
	}
	if len(a.Fields) != 2 || !a.Fields[0].Static || a.Fields[1].Type.Dims != 1 {
		t.Fatal("fields misparsed")
	}
	if len(a.Methods) != 2 || !a.Methods[1].Static {
		t.Fatal("methods misparsed")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"class { }",
		"class A extends { }",
		"class A { int; }",
		"class A { void m() { if } }",
		"class A { void m() { x = ; } }",
		"class A { void m() { 1 + 2; } }", // expr stmt must be a call
	}
	for _, src := range cases {
		if _, err := Parse("t", src); err == nil {
			t.Fatalf("no parse error for %q", src)
		}
	}
}

// TestParserNeverPanics feeds token soup to the parser; it must return an
// error or a tree, never panic.
func TestParserNeverPanics(t *testing.T) {
	fragments := []string{
		"class", "interface", "extends", "implements", "{", "}", "(", ")",
		"[", "]", ";", ",", ".", "=", "+", "-", "if", "else", "while",
		"for", "return", "new", "this", "null", "int", "x", "Foo", "42",
		"1.5", "\"s\"", "instanceof", "synchronized", "static", "boolean",
	}
	rng := uint64(12345)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int(rng>>33) % n
	}
	for trial := 0; trial < 300; trial++ {
		var sb strings.Builder
		for i := 0; i < 40; i++ {
			sb.WriteString(fragments[next(len(fragments))])
			sb.WriteByte(' ')
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("parser panicked on %q: %v", sb.String(), r)
				}
			}()
			Parse("fuzz", sb.String()) //nolint:errcheck
		}()
	}
}

func TestCastVsParenDisambiguation(t *testing.T) {
	h := buildChecked(t, `
class A {
    int m(Object o) {
        A a = (A) o;          // cast
        int x = 3;
        int y = (x) + 1;      // parenthesized expr
        double d = (double) x; // prim cast
        return y + (int) d;
    }
}
`)
	if h.Class("A") == nil {
		t.Fatal("missing class")
	}
}

func TestFieldLayoutSuperFirst(t *testing.T) {
	h := buildChecked(t, `
class A { int a; double b; }
class B extends A { byte c; long d; }
`)
	b := h.Class("B")
	var offs []int
	for _, f := range b.AllFields {
		offs = append(offs, f.Offset)
	}
	// a at 0 (4), b aligned to 8, c at 16, d aligned to 24.
	want := []int{0, 8, 16, 24}
	for i, w := range want {
		if offs[i] != w {
			t.Fatalf("field %d offset %d want %d", i, offs[i], w)
		}
	}
	if b.BodySize != 32 {
		t.Fatalf("BodySize %d want 32", b.BodySize)
	}
	// Subclass layout extends the super layout (required for the shared
	// record format of Figure 1).
	a := h.Class("A")
	if a.AllFields[0] != b.AllFields[0] || a.AllFields[1] != b.AllFields[1] {
		t.Fatal("super fields not shared")
	}
}

func TestHierarchyErrors(t *testing.T) {
	cases := map[string]string{
		"cycle":         "class A extends B { }\nclass B extends A { }",
		"unknown super": "class A extends Missing { }",
		"dup class":     "class A { }\nclass A { }",
		"bad override":  "class A { int m() { return 1; } }\nclass B extends A { double m() { return 1.0; } }",
		"missing iface": "interface I { void f(); }\nclass A implements I { }",
		"field shadow":  "class A { int x; }\nclass B extends A { int x; }",
	}
	for name, src := range cases {
		f := mustParse(t, "class Object { }\n"+src)
		if _, err := BuildHierarchy(f); err == nil {
			t.Fatalf("%s: no error", name)
		}
	}
}

func TestCheckerErrors(t *testing.T) {
	cases := map[string]string{
		"type mismatch":    "class A { void m() { int x = true; } }",
		"unknown var":      "class A { void m() { x = 1; } }",
		"unknown method":   "class A { void m() { this.nope(); } }",
		"arg count":        "class A { void f(int x) { } void m() { this.f(); } }",
		"narrowing":        "class A { void m() { long l = 1L; int x = l; } }",
		"this in static":   "class A { static void m() { A a = this; } }",
		"break outside":    "class A { void m() { break; } }",
		"return mismatch":  "class A { int m() { return true; } }",
		"bad index":        "class A { void m() { int[] a = new int[3]; int x = a[1.5]; } }",
		"non-bool cond":    "class A { void m() { if (1) { } } }",
		"double remainder": "class A { void m() { double d = 1.0 % 2.0; } }",
	}
	for name, src := range cases {
		f := mustParse(t, "class Object { }\n"+src)
		h, err := BuildHierarchy(f)
		if err != nil {
			continue // some cases fail at hierarchy stage, fine
		}
		if err := Check(h); err == nil {
			t.Fatalf("%s: checker accepted invalid program", name)
		}
	}
}

// TestFillNewChecks holds Sys.fillNew to its signature: an array of a class
// whose fields are all primitive, an int start, and one column per field,
// in AllFields order (superclass first), each an array of exactly the
// field's type.
func TestFillNewChecks(t *testing.T) {
	const classes = `
class Base { long l; }
class P extends Base { byte b; double d; }
class R { int x; R next; }
`
	buildChecked(t, classes+`class A { void m(P[] ps, long[] ls, byte[] bs, double[] ds) { Sys.fillNew(ps, 0, ls, bs, ds); } }`)
	cases := map[string]struct{ body, want string }{
		"reference field": {"R[] rs = new R[2]; int[] xs = new int[2]; R[] ns = new R[2]; Sys.fillNew(rs, 0, xs, ns);",
			"field next is a reference"},
		"too few columns": {"P[] ps = new P[2]; long[] ls = new long[2]; byte[] bs = new byte[2]; Sys.fillNew(ps, 0, ls, bs);",
			"needs 3 columns, one per field, got 2"},
		"too many columns": {"P[] ps = new P[2]; long[] ls = new long[2]; Sys.fillNew(ps, 0, ls, ls, ls, ls);",
			"needs 3 columns, one per field, got 4"},
		"wrong element type": {"P[] ps = new P[2]; long[] ls = new long[2]; int[] is = new int[2]; double[] ds = new double[2]; Sys.fillNew(ps, 0, ls, is, ds);",
			"column 2 (field b) must be byte[], got int[]"},
		"columns out of order": {"P[] ps = new P[2]; long[] ls = new long[2]; byte[] bs = new byte[2]; double[] ds = new double[2]; Sys.fillNew(ps, 0, bs, ls, ds);",
			"column 1 (field l) must be long[], got byte[]"},
		"not an array": {"P p = new P(); long[] ls = new long[2]; byte[] bs = new byte[2]; double[] ds = new double[2]; Sys.fillNew(p, 0, ls, bs, ds);",
			"needs an array of a class, got P"},
		"primitive array": {"int[] xs = new int[2]; Sys.fillNew(xs, 0, xs);", "needs an array of a class, got int[]"},
		"start not int": {"P[] ps = new P[2]; long[] ls = new long[2]; byte[] bs = new byte[2]; double[] ds = new double[2]; Sys.fillNew(ps, 1L, ls, bs, ds);",
			"start position must be int"},
	}
	for name, c := range cases {
		f := mustParse(t, "class Object { }\n"+classes+"class A { void m() { "+c.body+" } }")
		h, err := BuildHierarchy(f)
		if err != nil {
			t.Fatalf("%s: hierarchy: %v", name, err)
		}
		if err := Check(h); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: check error %v, want one containing %q", name, err, c.want)
		}
	}
}

func TestWideningInserted(t *testing.T) {
	h := buildChecked(t, `
class A {
    double m(int x) {
        double d = x;       // int -> double
        long l = x + 1;     // int -> long
        return d + l;       // long -> double in binary op
    }
}
`)
	m := h.Class("A").Methods["m"]
	if !m.Ret.Equals(DoubleType) {
		t.Fatal("bad return type")
	}
}

func TestAssignability(t *testing.T) {
	h := buildChecked(t, `
interface I { void f(); }
class A implements I { void f() { } }
class B extends A { }
class C { }
`)
	cases := []struct {
		dst, src *Type
		want     bool
	}{
		{ClassType("A"), ClassType("B"), true},
		{ClassType("B"), ClassType("A"), false},
		{IfaceType("I"), ClassType("B"), true},
		{IfaceType("I"), ClassType("C"), false},
		{ClassType("A"), NullType, true},
		{ClassType("Object"), ClassType("C"), true},
		{ArrayOf(IntType), ArrayOf(IntType), true},
		{ArrayOf(IntType), ArrayOf(LongType), false},
	}
	for i, c := range cases {
		if got := h.assignableRef(c.dst, c.src); got != c.want {
			t.Fatalf("case %d: assignable(%s, %s) = %v want %v", i, c.dst, c.src, got, c.want)
		}
	}
}

func TestTypeFieldSizes(t *testing.T) {
	if BoolType.FieldSize() != 1 || ByteType.FieldSize() != 1 ||
		IntType.FieldSize() != 4 || LongType.FieldSize() != 8 ||
		DoubleType.FieldSize() != 8 || ClassType("X").FieldSize() != 8 ||
		ArrayOf(IntType).FieldSize() != 8 {
		t.Fatal("field sizes wrong")
	}
}

func TestStaticRewrite(t *testing.T) {
	h := buildChecked(t, `
class A {
    static int counter;
    static int next() { A.counter = A.counter + 1; return A.counter; }
}
class B { void m() { int x = A.next() + A.counter; } }
`)
	a := h.Class("A")
	if len(a.Statics) != 1 || !a.Statics[0].Static {
		t.Fatal("static field lost")
	}
	if h.NumStatics != 1 {
		t.Fatalf("NumStatics %d", h.NumStatics)
	}
}

func TestSynchronizedChecks(t *testing.T) {
	buildChecked(t, `
class A {
    void m(Object o) {
        synchronized (o) {
            int x = 1;
        }
    }
}
`)
	f := mustParse(t, "class Object { }\nclass A { void m() { synchronized (1) { } } }")
	h, err := BuildHierarchy(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(h); err == nil || !strings.Contains(err.Error(), "reference") {
		t.Fatalf("synchronized on int accepted: %v", err)
	}
}
