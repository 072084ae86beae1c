package lang

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestParseTokensMatchesParse parses every source of facade's FuzzBuild
// corpus twice from one token slice and holds both files, or both errors,
// to Parse of the source text; the slice must come out as it went in.
func TestParseTokensMatchesParse(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "facade", "testdata", "fuzz", "FuzzBuild", "*"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no FuzzBuild corpus: %v", err)
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		line, ok := strings.CutPrefix(string(raw), "go test fuzz v1\nstring(")
		src, err := strconv.Unquote(strings.TrimSuffix(line, ")\n"))
		if !ok || err != nil {
			t.Fatalf("%s: not a one-string corpus entry", p)
		}
		name := filepath.Base(p) + ".fj"
		want, wantErr := Parse(name, src)
		toks, err := Lex(name, src)
		if err != nil {
			if wantErr == nil || err.Error() != wantErr.Error() {
				t.Errorf("%s: Lex: %v, Parse: %v", name, err, wantErr)
			}
			continue
		}
		before := slices.Clone(toks)
		for round := 0; round < 2; round++ {
			got, err := ParseTokens(name, toks)
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("%s: ParseTokens: %v, Parse: %v", name, err, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: ParseTokens and Parse build different files", name)
			}
		}
		if !slices.Equal(toks, before) {
			t.Errorf("%s: parsing wrote into its token slice", name)
		}
	}
}
