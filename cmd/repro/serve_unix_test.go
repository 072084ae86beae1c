//go:build unix

package main

import (
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestServeDrainsOnSIGTERM: SIGTERM lets the daemon's work finish or stay
// checkpointed in the journal, then ends it with exit 0 and its port file
// removed; the next daemon on the same journal serves the job submitted
// before the signal with its one-shot output.
func TestServeDrainsOnSIGTERM(t *testing.T) {
	qs := filepath.Join("..", "..", "examples", "quickstart", "quickstart.fj")
	want := mustRun(t, "submit", "-oneshot", "-transform", qs)
	pf := portFile(t)
	d := serve(t, pf, "-drain", "60s")
	// The submit's round trip outlasts the few statements between the
	// port file's write and serve's signal.Notify.
	id := strings.TrimSpace(mustRun(t, "submit", "-portfile", pf, "-nostart", "-nowait", "-transform", qs))
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	d.exit(t, 0, 90*time.Second)
	if _, err := os.Stat(pf); !os.IsNotExist(err) {
		t.Errorf("port file after the drain: %v, want it removed", err)
	}

	d2 := serve(t, pf)
	if got := mustRun(t, "wait", "-portfile", pf, id); got != want {
		t.Errorf("drained job on the next daemon:\n%s\none-shot:\n%s", got, want)
	}
	mustRun(t, "shutdown", "-portfile", pf)
	d2.exit(t, 0, 30*time.Second)
}
