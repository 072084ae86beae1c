package facade

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

var update = flag.Bool("update", false, "rewrite FuzzBuild's seed corpus under testdata/fuzz")

// FuzzBuild feeds arbitrary FJ source to Build, with the data classes its
// "// facadec: data=" directive names: Build must either fail with an
// error or return P and P' that pass the IR verifier, and never panic.
// The seeds are the committed corpus under testdata/fuzz/FuzzBuild (see
// buildSeeds); go test runs them as a plain test.
func FuzzBuild(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		p, p2, err := Build(map[string]string{"fuzz.fj": src}, DataClassesDirective(src))
		if err != nil {
			return
		}
		if err := analysis.VerifyProgram(p); err != nil {
			t.Fatalf("P fails IR verification: %v", err)
		}
		if p2 != nil {
			if err := analysis.VerifyProgram(p2); err != nil {
				t.Fatalf("P' fails IR verification: %v", err)
			}
		}
	})
}

// seedGenerated is how many generated programs buildSeeds commits.
const seedGenerated = 20

// buildSeeds returns FuzzBuild's seed inputs by corpus file name: every
// example program, every differential-battery program and the first
// generated programs, each carrying its data classes as a directive. The
// corpus is shared: internal/analysis's DCE differential test reads it.
func buildSeeds(t *testing.T) map[string]string {
	t.Helper()
	seeds := map[string]string{}
	paths, err := filepath.Glob(filepath.Join("..", "examples", "*", "*.fj"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example programs: %v", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		seeds["example-"+filepath.Base(filepath.Dir(p))] = string(src)
	}
	directive := func(data []string) string {
		if len(data) == 0 {
			return ""
		}
		return "// facadec: data=" + strings.Join(data, ",") + "\n"
	}
	for _, d := range diffPrograms {
		seeds["battery-"+d.name] = directive(d.dataClasses) + d.src
	}
	for seed := 0; seed < seedGenerated; seed++ {
		g := &progGen{rng: rand.New(rand.NewSource(int64(seed)))}
		seeds[fmt.Sprintf("gen-%02d", seed)] = directive(fuzzData) + g.generate(30)
	}
	return seeds
}

// TestBuildSeedsAreCommitted keeps the committed seed corpus in step with
// the programs it is made from; -update rewrites it.
func TestBuildSeedsAreCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzBuild")
	seeds := buildSeeds(t)
	if *update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, src := range seeds {
		want := fmt.Sprintf("go test fuzz v1\nstring(%q)\n", src)
		path := filepath.Join(dir, name)
		if *update {
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to regenerate)", err)
		}
		if string(got) != want {
			t.Errorf("%s is stale (run with -update to regenerate)", path)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		seedLike := strings.HasPrefix(name, "example-") || strings.HasPrefix(name, "battery-") || strings.HasPrefix(name, "gen-")
		if _, ok := seeds[name]; seedLike && !ok {
			t.Errorf("%s names no seed any more: delete it", filepath.Join(dir, name))
		}
	}
}
