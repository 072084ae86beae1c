package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// beMainEnv makes the test binary behave as the repro command, so the
// tests can read what a user sees (usage on stderr, flag -h output, exit
// codes) from subcommands that os.Exit, and run daemons and experiments as
// processes of their own without building the command.
const beMainEnv = "REPRO_TEST_BE_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(beMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// reproCmd is `repro args...`, run by this test binary.
func reproCmd(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), beMainEnv+"=1")
	return cmd
}

// repro runs the command with args and returns its stderr.
func repro(t *testing.T, args ...string) string {
	t.Helper()
	cmd := reproCmd(args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	_ = cmd.Run() // usage exits 2 and -h exits 0; the text is what is under test
	return stderr.String()
}

// run runs the command to its end and returns its stdout; a nonzero exit
// is an error that carries the command line and its stderr.
func run(args ...string) (string, error) {
	cmd := reproCmd(args...)
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return stdout.String(), fmt.Errorf("repro %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String(), nil
}

// mustRun is run that fails the test unless the command exits 0.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	out, err := run(args...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sortedKeys(set map[string]bool) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestCommandsUsageAndDocAgree: the dispatch table, the usage line and the
// package doc comment are three hand-kept lists of the same subcommands
// ("all" is dispatched outside the table); adding or dropping one in only
// some of them must fail here.
func TestCommandsUsageAndDocAgree(t *testing.T) {
	want := map[string]bool{"all": true}
	for name := range commands {
		want[name] = true
	}

	usageLine := repro(t)
	m := regexp.MustCompile(`\{([a-z0-9|]+)\}`).FindStringSubmatch(usageLine)
	if m == nil {
		t.Fatalf("no {a|b|...} command list in usage output %q", usageLine)
	}
	inUsage := map[string]bool{}
	for _, name := range strings.Split(m[1], "|") {
		inUsage[name] = true
	}

	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	inDoc := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\s*repro (\w+)\b`).FindAllStringSubmatch(f.Doc.Text(), -1) {
		inDoc[m[1]] = true
	}

	wantKeys := strings.Join(sortedKeys(want), " ")
	if got := strings.Join(sortedKeys(inUsage), " "); got != wantKeys {
		t.Errorf("usage() lists      %s\ncommands table has %s", got, wantKeys)
	}
	if got := strings.Join(sortedKeys(inDoc), " "); got != wantKeys {
		t.Errorf("package doc lists  %s\ncommands table has %s", got, wantKeys)
	}
}

// TestLoadFlags: `repro load` measures determinism and reports load/v1; it
// carries no benchmark-gate flags.
func TestLoadFlags(t *testing.T) {
	help := repro(t, "load", "-h")
	listed := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\s+-([a-z-]+)\b`).FindAllStringSubmatch(help, -1) {
		listed[m[1]] = true
	}
	for _, kept := range []string{"seed", "jobs", "clients", "results", "json"} {
		if !listed[kept] {
			t.Errorf("repro load -h does not list -%s:\n%s", kept, help)
		}
	}
	for _, gone := range []string{"bench", "profile", "baseline", "tolerance", "report-only"} {
		if listed[gone] {
			t.Errorf("repro load -h still lists -%s", gone)
		}
	}
}
