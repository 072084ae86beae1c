package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/facade"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/ir"
)

// TestInlineGolden pins what the inliner does to each kind of call site:
// monomorphic virtual, constructor and static calls are spliced (with a
// null check only where the receiver is not provably non-null, a
// continuation block only for several returns, fresh allocation sites for
// copied allocations); polymorphic, over-budget, recursive and
// boundary-crossing calls are left alone.
func TestInlineGolden(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "inline.fj"))
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string]string{"inline.fj": string(src)}
	p, err := facade.Compile(sources)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{DataClasses: facade.DataClassesDirective(string(src))}
	data, err := core.DataClosure(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	cases := []string{
		"Data.monoVirtual", "Data.ctor", "Data.staticCall", "Data.twoReturns", "Data.copiedAlloc", "Data.fresh",
		"Data.polymorphic", "Data.overBudget", "Data.recursive", "Data.dataToControl", "Ctl.readBox",
	}
	before := make(map[string]string, len(cases))
	for _, name := range cases {
		before[name] = p.Funcs[name].String()
	}
	sites := p.NumSites
	n := analysis.Inline(p, data)
	var sb strings.Builder
	for _, name := range cases {
		after := p.Funcs[name].String()
		verdict := "INLINED"
		if after == before[name] {
			verdict = "UNCHANGED"
		}
		sb.WriteString("== " + name + ": " + verdict + "\n-- before\n" + before[name])
		if verdict == "INLINED" {
			sb.WriteString("-- after\n" + after)
		}
	}
	for name, want := range map[string]string{
		"Data.monoVirtual": "INLINED", "Data.ctor": "INLINED", "Data.staticCall": "INLINED",
		"Data.twoReturns": "INLINED", "Data.copiedAlloc": "INLINED", "Data.fresh": "INLINED",
		"Data.polymorphic": "UNCHANGED", "Data.overBudget": "UNCHANGED", "Data.recursive": "UNCHANGED",
		"Data.dataToControl": "UNCHANGED", "Ctl.readBox": "UNCHANGED",
	} {
		if !strings.Contains(sb.String(), "== "+name+": "+want+"\n") {
			t.Errorf("%s: want %s", name, want)
		}
	}
	if n == 0 {
		t.Error("nothing was inlined")
	}
	// analysis.Lifetimes keeps one class per site, so the copy of Box.make's
	// allocation must not share the original's number.
	for _, b := range p.Funcs["Data.copiedAlloc"].Blocks {
		for i := range b.Instrs {
			if in := &b.Instrs[i]; in.Op == ir.OpNew && int(in.Site) <= sites {
				t.Errorf("copied allocation kept site #%d (program had %d sites before inlining)", in.Site, sites)
			}
		}
	}
	if err := analysis.VerifyProgram(p); err != nil {
		t.Fatalf("inlined P: %v", err)
	}
	p2, err := core.Transform(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := analysis.VerifyProgram(p2); err != nil {
		t.Fatalf("inlined P': %v", err)
	}
	if fs := analysis.LintProgram(p2); len(fs) > 0 {
		t.Fatalf("inlined P' lint: %s", fs[0])
	}

	wantPath := filepath.Join("testdata", "inline.want")
	if *update {
		if err := os.WriteFile(wantPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(wantPath)
	if err != nil {
		t.Fatalf("%s (run with -update to regenerate)", err)
	}
	if sb.String() != string(want) {
		t.Errorf("inliner output changed (run with -update to regenerate).\ngot:\n%s", sb.String())
	}
}

// TestInlineKeepsNullReceiverText runs a call on a null receiver through
// both pipelines: the check that replaces the inlined call must fail with
// exactly the message the call itself raises, in P and in P'.
func TestInlineKeepsNullReceiverText(t *testing.T) {
	sources := map[string]string{"npe.fj": `
class Cell { int v; Cell next; int get() { return this.v; } }
class Main {
    static void main() {
        Cell c = new Cell();
        Sys.println(c.next.get());
    }
}
`}
	data := []string{"Cell", "Main"}
	plain, err := facade.Compile(sources)
	if err != nil {
		t.Fatal(err)
	}
	plain2, err := facade.Transform(plain, facade.TransformOptions{DataClasses: data})
	if err != nil {
		t.Fatal(err)
	}
	inl, inl2, err := facade.Build(sources, data)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(inl.Funcs["Main.main"].String(), "call Cell.get") {
		t.Fatalf("Cell.get was not inlined:\n%s", inl.Funcs["Main.main"])
	}
	for _, c := range []struct {
		name           string
		plain, inlined *ir.Program
		want           string
	}{
		{"P", plain, inl, "NullPointerException: virtual call get"},
		{"P'", plain2, inl2, "NullPointerException: devirtualized call on null record"},
	} {
		_, errPlain := facade.Run(c.plain)
		_, errInl := facade.Run(c.inlined)
		if errPlain == nil || !strings.Contains(errPlain.Error(), c.want) {
			t.Fatalf("%s un-inlined: got %v, want %q", c.name, errPlain, c.want)
		}
		if errInl == nil || errInl.Error() != errPlain.Error() {
			t.Errorf("%s: inlined fails with %v, un-inlined with %v", c.name, errInl, errPlain)
		}
	}
}
