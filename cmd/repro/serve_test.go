package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
)

// daemon is one `repro serve` child of the test binary.
type daemon struct {
	cmd    *exec.Cmd
	log    strings.Builder // stdout and stderr; read only after exited
	exited chan struct{}   // closed once cmd.Wait returned
}

// portFile names a port file in a directory of the test's own; the
// daemon's journal ("<portfile>.journal") lands beside it.
func portFile(t *testing.T) string {
	return filepath.Join(t.TempDir(), "repro.port")
}

// serve starts `repro serve -portfile pf args...` and returns once the
// child has written its own pid to pf: a port file an earlier, crashed
// daemon left behind does not count. Every serve child of these tests
// starts here: the test's cleanup kills and reaps it whatever happened,
// and -idle ends it should the test binary itself die first. Clients pass
// -portfile and, where the command has it, -nostart: an auto-start would
// re-exec this binary as a detached daemon no cleanup knows of.
func serve(t *testing.T, pf string, args ...string) *daemon {
	t.Helper()
	d := &daemon{exited: make(chan struct{})}
	d.cmd = reproCmd(append([]string{"serve", "-portfile", pf, "-idle", "120s"}, args...)...)
	d.cmd.Stdout, d.cmd.Stderr = &d.log, &d.log
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		d.cmd.Wait()
		close(d.exited)
	}()
	t.Cleanup(func() {
		d.cmd.Process.Kill()
		<-d.exited
	})

	deadline := time.Now().Add(time.Minute)
	for {
		var info struct {
			PID int `json:"pid"`
		}
		if data, err := os.ReadFile(pf); err == nil && json.Unmarshal(data, &info) == nil && info.PID == d.cmd.Process.Pid {
			return d
		}
		select {
		case <-d.exited:
			t.Fatalf("repro serve exited %d before writing %s:\n%s", d.cmd.ProcessState.ExitCode(), pf, d.log.String())
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("repro serve wrote no port file %s within a minute", pf)
		}
	}
}

// exit waits up to within for the daemon to end and checks its exit code.
func (d *daemon) exit(t *testing.T, code int, within time.Duration) {
	t.Helper()
	select {
	case <-d.exited:
	case <-time.After(within):
		t.Fatalf("repro serve still running %v after it was told to stop", within)
	}
	if got := d.cmd.ProcessState.ExitCode(); got != code {
		t.Fatalf("repro serve exited %d, want %d; its output:\n%s", got, code, d.log.String())
	}
}

// examples returns the shipped examples' directory names, sorted, and
// each one's FJ file.
func examples(t *testing.T) (names []string, files map[string]string) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "*.fj"))
	if err != nil {
		t.Fatal(err)
	}
	files = map[string]string{}
	for _, p := range paths {
		name := filepath.Base(filepath.Dir(p))
		names = append(names, name)
		files[name] = p
	}
	if len(names) != 4 {
		t.Fatalf("found examples %v, want the four shipped ones", names)
	}
	sort.Strings(names)
	return names, files
}

// staticsSrc counts its runs in a static field, which a VM reused for the
// next job must have cleared.
const staticsSrc = `
class Main {
    static int runs;
    static void main() {
        Main.runs = Main.runs + 1;
        Sys.println(Main.runs);
    }
}
`

// TestServeMatchesOneShot drives one daemon through what its users do and
// holds each output to the in-process one-shot run of the same submit,
// byte for byte: the four examples' P′ at once across tenants; each
// example's P, and staticsSrc, twice, so that the second run lands on the
// VM ResetForReuse returned to the pool (P′ leaves the control heap near
// empty, so it is P whose heap and statics the reset must restore); a P′
// job on a two-page DRAM watermark; and a job that fails under injected
// faults, which must exit nonzero and leave the next job's output alone.
// Two `repro load` runs of one seed write the same per-job results. A
// shutdown ends the daemon with exit 0, its port file and the tiered job's
// spill file gone.
func TestServeMatchesOneShot(t *testing.T) {
	names, files := examples(t)
	// No example has a static field; this program reads one before it
	// writes it.
	files["statics"] = filepath.Join(t.TempDir(), "statics.fj")
	if err := os.WriteFile(files["statics"], []byte(staticsSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	pNames := append(names[:len(names):len(names)], "statics")
	oneP, oneP2 := map[string]string{}, map[string]string{}
	for _, name := range pNames {
		oneP[name] = mustRun(t, "submit", "-oneshot", files[name])
	}
	for _, name := range names {
		oneP2[name] = mustRun(t, "submit", "-oneshot", "-transform", files[name])
	}
	pf := portFile(t)
	tierDir := t.TempDir()
	// -pool holds every VM this test returns, so each second P run finds
	// the VM its first run left.
	d := serve(t, pf, "-jobs", "4", "-pool", "16")
	submit := func(args ...string) []string {
		return append([]string{"submit", "-portfile", pf, "-nostart"}, args...)
	}

	var wg sync.WaitGroup
	for _, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := run(submit("-tenant", name, "-transform", files[name])...)
			if err != nil {
				t.Error(err)
			} else if out != oneP2[name] {
				t.Errorf("%s P′ on the daemon:\n%s\none-shot:\n%s", name, out, oneP2[name])
			}
		}()
	}
	wg.Wait()

	for _, name := range pNames {
		for _, leg := range []string{"first", "second"} {
			if out := mustRun(t, submit("-tenant", name, files[name])...); out != oneP[name] {
				t.Errorf("%s P, %s run on the daemon:\n%s\none-shot:\n%s", name, leg, out, oneP[name])
			}
		}
	}
	var st server.ServerStatus
	if err := json.Unmarshal([]byte(mustRun(t, "status", "-portfile", pf)), &st); err != nil {
		t.Fatalf("repro status: %v", err)
	}
	if st.Schema != server.Schema || st.WarmHits != int64(len(pNames)) {
		t.Errorf("repro status: schema %q, warm_hits %d; want %q and one hit per P program", st.Schema, st.WarmHits, server.Schema)
	}

	qs := files["quickstart"]
	if out := mustRun(t, submit("-transform", "-tier-dir", tierDir, "-tier-high", "2", qs)...); out != oneP2["quickstart"] {
		t.Errorf("tiered quickstart P′ on the daemon:\n%s\nuntiered one-shot:\n%s", out, oneP2["quickstart"])
	}

	if out, err := run(submit("-transform", "-faults", "alloc=1,page=1,seed=3", qs)...); err == nil {
		t.Errorf("submit of a job failing under injected faults exited 0, output %q", out)
	}
	if out := mustRun(t, submit("-transform", qs)...); out != oneP2["quickstart"] {
		t.Errorf("quickstart P′ after the failed job:\n%s\none-shot:\n%s", out, oneP2["quickstart"])
	}

	var results []string
	for i := range 2 {
		path := filepath.Join(t.TempDir(), fmt.Sprintf("results%d.txt", i))
		mustRun(t, "load", "-portfile", pf, "-seed", "7", "-jobs", "8", "-clients", "4", "-tenants", "3",
			"-quota-every", "4", "-results", path)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, string(data))
	}
	if results[0] == "" || results[0] != results[1] {
		t.Errorf("repro load -seed 7, two runs' results:\n%s\n%s", results[0], results[1])
	}

	mustRun(t, "shutdown", "-portfile", pf)
	d.exit(t, 0, 30*time.Second)
	if _, err := os.Stat(pf); !os.IsNotExist(err) {
		t.Errorf("port file after shutdown: %v, want it removed", err)
	}
	if left, err := os.ReadDir(tierDir); err != nil || len(left) > 0 {
		t.Errorf("spill directory after shutdown: %v %v, want it empty", left, err)
	}
}

// TestServeRecoversFromKillat: a daemon under "killat=7" os.Exit(137)s
// at its 7th journal append, as a kill -9 landing mid-batch would end it:
// no drain, no journal seal, and the port file stays behind. A second
// daemon on the same port file and journal must bring every acknowledged
// job to its one-shot output; a submit the crash left unacknowledged is
// resubmitted to it and must match too.
func TestServeRecoversFromKillat(t *testing.T) {
	names, files := examples(t)
	want := map[string]string{}
	for _, name := range names {
		want[name] = mustRun(t, "submit", "-oneshot", "-transform", files[name])
	}
	pf := portFile(t)
	d := serve(t, pf, "-jobs", "2", "-faults", "killat=7")
	acked := map[string]string{}
	for _, name := range names {
		out, err := run("submit", "-portfile", pf, "-nostart", "-nowait", "-tenant", name, "-transform", files[name])
		if err == nil {
			acked[name] = strings.TrimSpace(out)
		}
	}
	d.exit(t, 137, time.Minute)
	if len(acked) == 0 {
		t.Fatal("no submit was acknowledged before the crash")
	}
	if _, err := os.Stat(pf); err != nil {
		t.Fatalf("the crashed daemon's port file: %v, want it left behind", err)
	}

	d2 := serve(t, pf, "-jobs", "2")
	for _, name := range names {
		var got string
		if id, ok := acked[name]; ok {
			got = mustRun(t, "wait", "-portfile", pf, id)
		} else {
			got = mustRun(t, "submit", "-portfile", pf, "-nostart", "-tenant", name, "-transform", files[name])
		}
		if got != want[name] {
			t.Errorf("%s after the crash (acknowledged %v):\n%s\none-shot:\n%s", name, acked[name] != "", got, want[name])
		}
	}
	mustRun(t, "shutdown", "-portfile", pf)
	d2.exit(t, 0, 30*time.Second)
}
