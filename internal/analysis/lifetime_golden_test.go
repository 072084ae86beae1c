package analysis_test

// Golden tests for the lifetime pass (facadec vet -lifetimes) and the
// machine-readable vet report (facadec vet -json). lifetime.fj exercises
// every point of the lattice; the .want files pin the classification lines
// and the facade.vet/v1 JSON bytes exactly (regenerate with -update).

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/facade"
)

func checkGoldenText(t *testing.T, wantFile, got string) {
	t.Helper()
	wantPath := filepath.Join("testdata", wantFile)
	if *update {
		if err := os.WriteFile(wantPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(wantPath)
	if err != nil {
		t.Fatalf("%s (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("%s mismatch.\ngot:\n%s\nwant:\n%s", wantFile, got, want)
	}
}

func TestGoldenLifetimes(t *testing.T) {
	r := vetFile(t, "lifetime.fj", facade.VetLifetimes())
	if !r.Clean() {
		t.Fatalf("lifetime.fj should vet clean: %v %v", r.VerifyErrs, r.Diagnostics)
	}
	if len(r.Lifetimes) == 0 {
		t.Fatal("expected lifetime classifications, got none")
	}
	checkGoldenText(t, "lifetime.want", strings.Join(r.Lifetimes, "\n")+"\n")

	// The counts must tally the report lines.
	counts := map[string]int{}
	for _, l := range r.Lifetimes {
		for _, class := range []string{"epoch-local", "long-lived", "unknown"} {
			if strings.Contains(l, ": "+class+" (") {
				counts[class]++
			}
		}
	}
	for class, n := range counts {
		if r.LifetimeCounts[class] != n {
			t.Errorf("LifetimeCounts[%q] = %d, want %d", class, r.LifetimeCounts[class], n)
		}
	}
	// Every lattice point must be exercised.
	for _, class := range []string{"epoch-local", "long-lived", "unknown"} {
		if counts[class] == 0 {
			t.Errorf("no %s site in lifetime.fj", class)
		}
	}

	// Spot-check the classifications the program was written to produce.
	wantSubstr := []string{
		"new Node: long-lived (escapes (stored into an array) outside any proven iteration",
		"new int[]: epoch-local (allocated inside an iteration, never escapes, dead before every boundary",
		"new Node: unknown (escapes (stored into an array) inside an iteration",
		"new Node[]: unknown (live across a possible iteration boundary",
	}
	joined := strings.Join(r.Lifetimes, "\n")
	for _, sub := range wantSubstr {
		if !strings.Contains(joined, sub) {
			t.Errorf("missing expected classification %q", sub)
		}
	}
}

// TestGoldenLifetimeEntryRefinement pins the one path lifetime.fj does not
// reach: a helper called only from inside iterations is re-analysed under a
// proven-inside entry, its twin that is also called from outside is not.
func TestGoldenLifetimeEntryRefinement(t *testing.T) {
	r := vetFile(t, "lifetime_refine.fj", facade.VetLifetimes())
	if !r.Clean() {
		t.Fatalf("lifetime_refine.fj should vet clean: %v %v", r.VerifyErrs, r.Diagnostics)
	}
	checkGoldenText(t, "lifetime_refine.want", strings.Join(r.Lifetimes, "\n")+"\n")
	joined := strings.Join(r.Lifetimes, "\n")
	for _, sub := range []string{
		"new Node: unknown (escapes (returned) inside an iteration, in Main.insideOnly)",
		"new Node: long-lived (escapes (returned) outside any proven iteration, in Main.bothSides)",
	} {
		if !strings.Contains(joined, sub) {
			t.Errorf("missing expected classification %q", sub)
		}
	}
}

func TestGoldenLifetimesOffByDefault(t *testing.T) {
	r := vetFile(t, "lifetime.fj")
	if r.Lifetimes != nil || r.LifetimeCounts != nil {
		t.Fatal("lifetime report produced without VetLifetimes()")
	}
}

// TestGoldenVetJSON byte-pins the facade.vet/v1 report: the encoding is
// deterministic (sorted keys, stable numbers), so CI can diff the output
// directly.
func TestGoldenVetJSON(t *testing.T) {
	r := vetFile(t, "lifetime.fj", facade.VetLifetimes())
	r.File = "lifetime.fj"
	var buf bytes.Buffer
	if err := r.JSON(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	checkGoldenText(t, "lifetime_json.want", got)
	for _, sub := range []string{
		`"schema": "facade.vet/v1"`,
		`"clean": true`,
		`"file": "lifetime.fj"`,
		`"lifetime_counts"`,
	} {
		if !strings.Contains(got, sub) {
			t.Errorf("JSON report missing %q", sub)
		}
	}
	// Byte-for-byte determinism across encodes.
	var buf2 bytes.Buffer
	if err := r.JSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("JSON report is not byte-stable across encodes")
	}
}
