package repro

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/facade"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/gps"
	"repro/internal/graphchi"
	"repro/internal/hyracks"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/load"
	"repro/internal/lower"
	"repro/internal/stdlib"
)

var update = flag.Bool("update", false, "rewrite testdata/corpus_ir.want")

// raceEnabled is set by race_test.go in race builds.
var raceEnabled bool

// corpusInput is one program of the compile corpus: the three engine data
// paths and the four daemon scenarios, the programs the compile_cold
// benchmark builds.
type corpusInput struct {
	name    string
	sources map[string]string
	data    []string
}

func compileCorpus() []corpusInput {
	in := []corpusInput{
		{"graphchi", map[string]string{"graphchi.fj": graphchi.Source}, graphchi.DataClasses},
		{"hyracks", map[string]string{"hyracks.fj": hyracks.Source}, hyracks.DataClasses},
		{"gps", map[string]string{"gps.fj": gps.Source}, gps.DataClasses},
	}
	for _, sc := range load.Scenarios() {
		var data []string
		for _, src := range sc.Sources {
			data = append(data, facade.DataClassesDirective(src)...)
		}
		in = append(in, corpusInput{sc.Name, sc.Sources, data})
	}
	return in
}

// compileOne runs the whole compile of one input, parse to lifetime pass,
// and returns P and P′.
func compileOne(in corpusInput) (p, p2 *ir.Program, err error) {
	files, err := stdlib.ParseWith(in.sources)
	if err != nil {
		return nil, nil, err
	}
	h, err := lang.BuildHierarchy(files...)
	if err != nil {
		return nil, nil, err
	}
	if err := lang.Check(h); err != nil {
		return nil, nil, err
	}
	if p, err = lower.Program(h); err != nil {
		return nil, nil, err
	}
	if p2, err = core.Transform(p, core.Options{DataClasses: in.data}); err != nil {
		return nil, nil, err
	}
	if err := analysis.VerifyProgram(p2); err != nil {
		return nil, nil, err
	}
	if findings := analysis.LintProgram(p2); len(findings) > 0 {
		return nil, nil, fmt.Errorf("%d lint finding(s), first: %s", len(findings), findings[0])
	}
	if got := len(analysis.Lifetimes(p2)); got != p2.NumSites+1 {
		return nil, nil, fmt.Errorf("%d lifetime classes for %d sites", got, p2.NumSites)
	}
	return p, p2, nil
}

// printedIRHash hashes the printed IR of every function of p.
func printedIRHash(p *ir.Program) string {
	h := sha256.New()
	for _, f := range p.FuncList {
		fmt.Fprintln(h, f.String())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCorpusIRIsPinned compiles the corpus and holds the printed IR of P
// and P′ of every program, and the corpus's instruction counts, to
// testdata/corpus_ir.want. A compile that changes one instruction of one
// program, or lets two blocks share storage so that a later pass writes
// through one into the other, changes a hash. -update rewrites the file.
func TestCorpusIRIsPinned(t *testing.T) {
	var sb strings.Builder
	var lowered, transformed, removed int
	for _, in := range compileCorpus() {
		p, p2, err := compileOne(in)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		fmt.Fprintf(&sb, "%s P %s\n", in.name, printedIRHash(p))
		fmt.Fprintf(&sb, "%s P' %s\n", in.name, printedIRHash(p2))
		lowered += p.NumInstrs()
		transformed += p2.NumInstrs()
		removed += p2.DCERemoved
	}
	fmt.Fprintf(&sb, "lower.ir_instrs %d\ncore.ir_instrs_p2 %d\nanalysis.dce_removed %d\n", lowered, transformed, removed)
	got := sb.String()
	const path = "testdata/corpus_ir.want"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("corpus IR differs from %s (run with -update and read the diff):\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// compileBudget bounds what one compile of the whole corpus may allocate
// in Go memory, about 10 % above the reading on linux/amd64 with go1.24
// (3.93 MB in 22.5 k objects).
const (
	compileBudgetBytes   = 4_320_000
	compileBudgetObjects = 24_700
)

// TestCompileAllocationBudget holds a compile of the corpus to
// compileBudgetBytes and compileBudgetObjects, read off runtime.MemStats's
// TotalAlloc and Mallocs around the best of three compiles after a warm-up
// (the first compile also lexes the shared stdlib tokens). The race
// detector's allocations would not be the program's, so it skips there.
func TestCompileAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocations under -race are not the compile's")
	}
	corpus := compileCorpus()
	compileAll := func() {
		for _, in := range corpus {
			if _, _, err := compileOne(in); err != nil {
				t.Fatalf("%s: %v", in.name, err)
			}
		}
	}
	compileAll()
	var bytes, objects uint64 = ^uint64(0), ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		compileAll()
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		objects = min(objects, after.Mallocs-before.Mallocs)
	}
	t.Logf("one corpus compile allocates %.3f MB in %d objects", float64(bytes)/1e6, objects)
	if bytes > compileBudgetBytes {
		t.Errorf("compile allocates %d bytes, budget %d", bytes, compileBudgetBytes)
	}
	if objects > compileBudgetObjects {
		t.Errorf("compile allocates %d objects, budget %d", objects, compileBudgetObjects)
	}
}
