package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/facade"
)

// beMainEnv makes the test binary behave as the facadec command, so a test
// sees its exit status and output as a user does.
const beMainEnv = "REPRO_TEST_BE_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(beMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestVetExamples: `facadec vet -lifetimes -json` over every shipped
// example exits 0 and writes one facade.vet/v1 report per file, in the
// order given, each clean and carrying the lifetime classification.
func TestVetExamples(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "*.fj"))
	if err != nil || len(files) == 0 {
		t.Fatalf("examples: %v %v", files, err)
	}
	cmd := exec.Command(os.Args[0], append([]string{"vet", "-lifetimes", "-json"}, files...)...)
	cmd.Env = append(os.Environ(), beMainEnv+"=1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("facadec vet: %v\n%s", err, stderr.String())
	}

	dec := json.NewDecoder(strings.NewReader(stdout.String()))
	for i := 0; ; i++ {
		var r struct {
			Schema    string          `json:"schema"`
			File      string          `json:"file"`
			Clean     bool            `json:"clean"`
			Lifetimes json.RawMessage `json:"lifetimes"`
		}
		err := dec.Decode(&r)
		if errors.Is(err, io.EOF) {
			if i != len(files) {
				t.Fatalf("%d reports for %d files", i, len(files))
			}
			return
		}
		if err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
		if i >= len(files) {
			t.Fatalf("report %d past the %d files", i, len(files))
		}
		if r.Schema != facade.VetJSONSchema || r.File != files[i] || !r.Clean || r.Lifetimes == nil {
			t.Errorf("report %d: schema %q file %q clean %v lifetimes %t; want %q, %q, clean, lifetimes",
				i, r.Schema, r.File, r.Clean, r.Lifetimes != nil, facade.VetJSONSchema, files[i])
		}
	}
}
