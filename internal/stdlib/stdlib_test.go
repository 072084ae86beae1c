package stdlib

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/lang"
	"repro/internal/lower"
)

func TestStdlibCompiles(t *testing.T) {
	files, err := ParseWith(nil)
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
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	for _, cls := range []string{"Object", "String", "ArrayList", "HashMap", "MapEntry"} {
		if h.Class(cls) == nil {
			t.Fatalf("stdlib missing %s", cls)
		}
	}
	// The String layout the VM relies on.
	sf := h.Class("String").FindField("value")
	if sf == nil || sf.Type.Kind != lang.TArray || sf.Type.Elem != lang.ByteType {
		t.Fatal("String.value must be byte[]")
	}
}

func TestParseWithUserErrorsPropagate(t *testing.T) {
	if _, err := ParseWith(map[string]string{"bad.fj": "class {"}); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestParseWithDeterministicOrder(t *testing.T) {
	a, err := ParseWith(map[string]string{"b.fj": "class B { }", "a.fj": "class A { }"})
	if err != nil {
		t.Fatal(err)
	}
	if a[1].Name != "a.fj" || a[2].Name != "b.fj" {
		t.Fatalf("order: %s %s", a[1].Name, a[2].Name)
	}
}

// TestParseSharesOnlyTokens parses the stdlib from its process-wide token
// slice from several goroutines: each parse must equal parsing the source
// text, own its AST, and leave the tokens as a fresh lex makes them.
func TestParseSharesOnlyTokens(t *testing.T) {
	want, err := lang.Parse(fileName, Source)
	if err != nil {
		t.Fatal(err)
	}
	files := make([]*lang.File, 8)
	var wg sync.WaitGroup
	for i := range files {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			files[i] = Parse()
		}(i)
	}
	wg.Wait()
	for i, f := range files {
		if !reflect.DeepEqual(f, want) {
			t.Fatalf("parse %d differs from lang.Parse of the source", i)
		}
		if i > 0 && f.Classes[0] == files[0].Classes[0] {
			t.Fatalf("parses %d and 0 share an AST node", i)
		}
	}
	fresh, err := lang.Lex(fileName, Source)
	if err != nil {
		t.Fatal(err)
	}
	if toks := tokens(); !slices.Equal(toks, fresh) || cap(toks) != len(toks) {
		t.Errorf("the shared tokens (%d, cap %d) are not a fresh lex (%d)", len(toks), cap(toks), len(fresh))
	}
}
