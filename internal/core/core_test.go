package core

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/lower"
	"repro/internal/stdlib"
)

func compile(t *testing.T, src string) *ir.Program {
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

const schema = `
interface Keyed { int key(); }
class Tuple implements Keyed {
    int id;
    Tuple next;
    int[] data;
    static int created;
    Tuple(int id) { this.id = id; }
    int key() { return this.id; }
    int pair(Tuple a, Tuple b) { return a.id + b.id; }
    Tuple dup() { return new Tuple(this.id); }
}
class Wide extends Tuple {
    double w;
    Wide(int id) { this.id = id; }
}
class Ctl {
    int x;
}
class Main {
    static void main() { Sys.println(0); }
}
`

func mustTransform(t *testing.T, p *ir.Program, opts Options) *ir.Program {
	t.Helper()
	p2, err := Transform(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p2
}

func TestClosureExpandsSubclassesAndFieldTypes(t *testing.T) {
	p := compile(t, schema)
	p2 := mustTransform(t, p, Options{DataClasses: []string{"Tuple"}})
	for _, want := range []string{"Tuple", "Wide", "String"} {
		if !p2.DataClasses[want] {
			t.Fatalf("closure missing %s (have %v)", want, p2.DataClasses)
		}
	}
	if p2.DataClasses["Ctl"] || p2.DataClasses["Main"] {
		t.Fatal("closure pulled in unrelated control classes")
	}
}

func TestFacadeHierarchyMirrorsOriginal(t *testing.T) {
	p := compile(t, schema)
	p2 := mustTransform(t, p, Options{DataClasses: []string{"Tuple"}})
	h := p2.H
	fb := h.Class("Facade")
	tf := h.Class("TupleFacade")
	wf := h.Class("WideFacade")
	if fb == nil || tf == nil || wf == nil {
		t.Fatal("facade classes missing")
	}
	if tf.Super != fb {
		t.Fatal("TupleFacade must extend Facade")
	}
	if wf.Super != tf {
		t.Fatal("WideFacade must extend TupleFacade (type-closed hierarchy mirror)")
	}
	// Facades carry no instance fields beyond pageRef.
	if len(tf.Fields) != 0 || len(wf.Fields) != 0 {
		t.Fatal("facade classes must not declare instance fields")
	}
	if len(fb.Fields) != 1 || fb.Fields[0].Name != "pageRef" || !fb.Fields[0].Type.Equals(lang.LongType) {
		t.Fatal("Facade base must have exactly the long pageRef field")
	}
	// IFacade twin exists and is implemented.
	ifc := h.Iface("KeyedFacade")
	if ifc == nil {
		t.Fatal("KeyedFacade missing")
	}
	if !tf.Implements(ifc) {
		t.Fatal("TupleFacade must implement KeyedFacade")
	}
	// Original classes are preserved for the control path.
	if h.Class("Tuple") == nil || h.Class("Ctl") == nil {
		t.Fatal("original classes must remain in P'")
	}
}

func TestSignatureMapping(t *testing.T) {
	p := compile(t, schema)
	p2 := mustTransform(t, p, Options{DataClasses: []string{"Tuple"}})
	tf := p2.H.Class("TupleFacade")
	m := tf.Methods["pair"]
	if m == nil {
		t.Fatal("pair missing on facade")
	}
	for i, pt := range m.Params {
		if !pt.Equals(lang.ClassType("TupleFacade")) {
			t.Fatalf("param %d of pair: %s, want TupleFacade", i, pt)
		}
	}
	if !m.Ret.Equals(lang.IntType) {
		t.Fatalf("pair return %s", m.Ret)
	}
	// Static fields move to the facade class; data statics become longs.
	if tf.FindStatic("created") == nil {
		t.Fatal("static field not moved to facade class")
	}
}

func TestBoundsComputation(t *testing.T) {
	src := `
class A {
    int x;
    A(int x) { this.x = x; }
    int two(A p, A q) { return p.x + q.x; }
    int one(A p) { return p.x; }
}
class B {
    int y;
    B(B other, B other2, B other3) { this.y = 1; }
}
class Main { static void main() { } }
`
	p := compile(t, src)
	p2 := mustTransform(t, p, Options{DataClasses: []string{"A", "B"}})
	// A: max params of type A in a method = 2.
	if p2.Bounds["A"] != 2 {
		t.Fatalf("bound[A] = %d want 2", p2.Bounds["A"])
	}
	// B's constructor takes 3 B params plus the receiver slot => 4.
	if p2.Bounds["B"] != 4 {
		t.Fatalf("bound[B] = %d want 4 (3 ctor params + receiver)", p2.Bounds["B"])
	}
	// Every data type has at least the allocation/return slot.
	if p2.Bounds["String"] < 1 || p2.Bounds["Object"] < 1 {
		t.Fatal("minimum bound violated")
	}
}

func TestStrictModeReportsViolations(t *testing.T) {
	srcRef := `
class Ctl { int x; }
class D { Ctl c; }
class Main { static void main() { } }
`
	p := compile(t, srcRef)
	if _, err := Transform(p, Options{DataClasses: []string{"D"}, NoAutoClose: true}); err == nil ||
		!strings.Contains(err.Error(), "reference-closed-world") {
		t.Fatalf("reference violation not reported: %v", err)
	}
	srcSub := `
class D { int x; }
class E extends D { int y; }
class Main { static void main() { } }
`
	p = compile(t, srcSub)
	if _, err := Transform(p, Options{DataClasses: []string{"D"}, NoAutoClose: true}); err == nil ||
		!strings.Contains(err.Error(), "type-closed-world") {
		t.Fatalf("subclass violation not reported: %v", err)
	}
}

func TestTableOneOpMapping(t *testing.T) {
	p := compile(t, schema)
	p2 := mustTransform(t, p, Options{DataClasses: []string{"Tuple"}})
	// Inspect TupleFacade.<init>: the field store must be a PStore.
	f := p2.Funcs[ir.CtorKey("TupleFacade")]
	if f == nil {
		t.Fatal("facade ctor missing")
	}
	var sawPStore, sawPrologue bool
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.OpPStore && in.Field.Name == "id" {
				sawPStore = true
			}
			if in.Op == ir.OpLoad && in.Field.Name == "pageRef" {
				sawPrologue = true
			}
			if in.Op == ir.OpStore && in.Field.Name == "id" {
				t.Fatal("facade ctor still writes a heap field (Table 1 case 3.1 not applied)")
			}
		}
	}
	if !sawPStore || !sawPrologue {
		t.Fatalf("facade ctor lacks PStore (%v) or pageRef prologue (%v)", sawPStore, sawPrologue)
	}
	// pair's call sites: a virtual call on a data receiver must go
	// through OpResolve + OpPoolGet.
	callerSrc := schema + `
class Driver {
    static int drive(Tuple t) { return t.pair(t, t); }
}
`
	_ = callerSrc
	// The original data method 'pair' accesses a.id/b.id via PLoad.
	pf := p2.Funcs[ir.FuncKey("TupleFacade", "pair")]
	var sawPLoad bool
	for _, b := range pf.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpPLoad {
				sawPLoad = true
			}
		}
	}
	if !sawPLoad {
		t.Fatal("pair does not read records via PLoad")
	}
}

func TestCallSiteProtocol(t *testing.T) {
	src := `
class T {
    int v;
    T(int v) { this.v = v; }
    int absorb(T other) { return this.v + other.v; }
    T clone2() { return new T(this.v); }
    int chain() {
        T o = this.clone2();
        return this.absorb(o);
    }
}
class Main { static void main() { } }
`
	p := compile(t, src)
	p2 := mustTransform(t, p, Options{DataClasses: []string{"T"}})
	f := p2.Funcs[ir.FuncKey("TFacade", "chain")]
	var recvPools, poolGets, unwraps int
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case ir.OpRecvPool:
				recvPools++
			case ir.OpPoolGet:
				poolGets++
			case ir.OpLoad:
				if in.Field.Name == "pageRef" {
					unwraps++
				}
			}
		}
	}
	// Two virtual calls, neither overridden => two receiver facades drawn
	// by static type; one data arg => >=1 pool get; one data return => >=1
	// unwrap (plus the receiver prologue load).
	if recvPools != 2 {
		t.Fatalf("recvPools = %d want 2", recvPools)
	}
	if poolGets < 1 {
		t.Fatal("no parameter pool access emitted")
	}
	if unwraps < 2 { // prologue + return unwrap
		t.Fatalf("unwraps = %d", unwraps)
	}
	// Return protocol: the facade method returning T must bind pool slot
	// 0 before returning (case 5.1).
	cf := p2.Funcs[ir.FuncKey("TFacade", "clone2")]
	last := cf.Blocks[len(cf.Blocks)-1].Instrs
	sawBindBeforeRet := false
	for i := 0; i < len(last)-1; i++ {
		if last[i].Op == ir.OpStore && last[i].Field.Name == "pageRef" &&
			last[len(last)-1].Op == ir.OpRet {
			sawBindBeforeRet = true
		}
	}
	if !sawBindBeforeRet {
		t.Fatal("data return does not travel through a bound facade")
	}
}

// TestFacadeBindingAdjacency verifies the §2.3/§3.7 safety property on the
// generated code: every facade bind (store to pageRef) is consumed before
// the same pool slot can be rebound — concretely, between a PoolGet of a
// given (class, index) and the next PoolGet of the same slot there is
// always an instruction consuming the facade (a call, return, or pageRef
// load).
func TestFacadeBindingAdjacency(t *testing.T) {
	p := compile(t, schema)
	p2 := mustTransform(t, p, Options{DataClasses: []string{"Tuple"}})
	for _, f := range p2.FuncList {
		if f.Class == nil || !strings.HasSuffix(f.Class.Name, "Facade") {
			continue
		}
		for _, b := range f.Blocks {
			var pendingBind ir.Reg = ir.NoReg
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Op == ir.OpStore && in.Field.Name == "pageRef" {
					pendingBind = in.A
					continue
				}
				if pendingBind == ir.NoReg {
					continue
				}
				switch in.Op {
				case ir.OpCall, ir.OpCallStatic:
					pendingBind = ir.NoReg // consumed as receiver/arg
				case ir.OpRet:
					pendingBind = ir.NoReg // consumed by return
				case ir.OpPoolGet, ir.OpResolve:
					// Another facade fetched before the bound one was
					// consumed is fine (multiple args); a *rebind* of the
					// same register would not be. Detect rebinding:
					if in.Dst == pendingBind {
						t.Fatalf("%s: facade register r%d refetched before use", f.Name, pendingBind)
					}
				}
			}
		}
	}
}

func TestConversionFunctionsSynthesized(t *testing.T) {
	// A control class holding a data-typed field forces interaction
	// points inside the data path (case 4.3/3.3).
	src := `
class D {
    int v;
    D(int v) { this.v = v; }
}
class Holder {
    static int stash;
}
class E {
    int v;
    D grab(Box b) { return b.d; }
    void put(Box b, D d) { b.d = d; }
}
class Box { D d; }
class Main { static void main() { } }
`
	p := compile(t, src)
	// Box has a D field, so closure pulls Box in; to create an IP we
	// must keep Box OUT of the data set.
	p2, err := Transform(p, Options{DataClasses: []string{"D", "E"}, NoAutoClose: true})
	if err == nil {
		// E.grab reads a data value from a control object: that is legal
		// (case 4.3) and must synthesize converters.
		found := false
		for _, f := range p2.FuncList {
			if strings.HasPrefix(f.Name, "FacadeBridge.") {
				found = true
			}
		}
		if !found {
			t.Fatal("no conversion functions synthesized for interaction points")
		}
		return
	}
	// Strict mode may reject instead, which is also paper behavior when
	// the boundary is not annotated; accept either but require one.
	if !strings.Contains(err.Error(), "closed-world") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestTransformIdempotentOnControlPath(t *testing.T) {
	p := compile(t, schema)
	// DisableDCE: dead-code elimination legitimately shrinks control
	// functions too; this test checks the transform proper copies them
	// verbatim.
	p2 := mustTransform(t, p, Options{DataClasses: []string{"Tuple"}, DisableDCE: true})
	// Control functions are copied verbatim: same instruction counts.
	for _, f := range p.FuncList {
		if f.Class != nil && (p2.DataClasses[f.Class.Name]) {
			continue
		}
		nf := p2.Funcs[f.Name]
		if nf == nil {
			t.Fatalf("control function %s missing from P'", f.Name)
		}
		if nf.NumInstrs() != f.NumInstrs() {
			t.Fatalf("control function %s changed size: %d -> %d", f.Name, f.NumInstrs(), nf.NumInstrs())
		}
		if nf == f {
			t.Fatalf("control function %s shared between P and P' (must be deep-copied)", f.Name)
		}
	}
}

func TestRecordSizesOnAllocationSites(t *testing.T) {
	p := compile(t, schema)
	p2 := mustTransform(t, p, Options{DataClasses: []string{"Tuple"}})
	tuple := p.H.Class("Tuple")
	// Find an OpPNew of TupleFacade anywhere; its Imm must equal Tuple's
	// body size (the compile-time D_Record_size of transformation 3).
	found := false
	for _, f := range p2.FuncList {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Op == ir.OpPNew && in.Cls.Name == "TupleFacade" {
					found = true
					if in.Imm != int64(tuple.BodySize) {
						t.Fatalf("PNew size %d, want %d", in.Imm, tuple.BodySize)
					}
				}
			}
		}
	}
	if !found {
		t.Fatal("no PNew of TupleFacade found")
	}
}
