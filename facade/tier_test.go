package facade

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/vm"
)

// Tier-equivalence battery: the disk tier is mechanism, not semantics.
// Every program here runs P' DRAM-only and P' under a watermark tight
// enough that pages spill and promote continuously, and the outputs must
// be bit-identical. Unlike the differential grid (which also carries a
// tiering axis), this battery additionally asserts the tier actually
// engaged — a vacuously-passing equivalence test would prove nothing.

// tierSrc builds a deliberately page-hungry program: records kept live
// across iterations so the resident set exceeds any small watermark, plus
// iteration-scoped churn so bulk release sees spilled pages.
const tierSrc = `
class Big {
    long a; long b; double c;
    int[] pad;
    Big(long a) { this.a = a; this.b = a * 3L; this.c = a + 0.5; this.pad = new int[700]; }
}
class Main {
    static void main() {
        Big[] keep = new Big[40];
        for (int i = 0; i < 40; i = i + 1) {
            keep[i] = new Big(i * 7919L);
            keep[i].pad[13] = i;
        }
        long acc = 0L;
        for (int it = 0; it < 6; it = it + 1) {
            Sys.iterStart();
            for (int i = 0; i < 200; i = i + 1) {
                Big t = new Big(i + it * 1000L);
                acc = acc + t.b + t.pad.length;
            }
            Sys.iterEnd();
            for (int i = 0; i < 40; i = i + 1) {
                acc = acc + keep[i].a + keep[i].b + keep[i].pad[13] + (long) keep[i].c;
            }
        }
        Sys.println(acc);
    }
}
`

// noLeaks is the postcondition of every closed run: no pool lock in use,
// and on P' no pinned page and no live page manager. what names the run.
func noLeaks(t *testing.T, what string, m *vm.VM) {
	t.Helper()
	if n := m.Locks.InUse(); n != 0 {
		t.Errorf("%s: %d pool lock(s) in use after Close", what, n)
	}
	if m.RT == nil {
		return
	}
	if n := m.RT.Pins(); n != 0 {
		t.Errorf("%s: %d pin(s) left after Close", what, n)
	}
	if n := m.RT.LiveManagers(); n != 0 {
		t.Errorf("%s: %d live page manager(s) left after Close", what, n)
	}
}

// closeClean closes a tiered run and checks noLeaks and that no spill file
// is left in the tier's directory.
func closeClean(t *testing.T, res *Result, dir string) {
	t.Helper()
	res.Close()
	noLeaks(t, "tiered run", res.VM)
	files, err := filepath.Glob(filepath.Join(dir, "spill-*.pages"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Errorf("spill file(s) left after Close: %v", files)
	}
}

func TestTierEquivalence(t *testing.T) {
	prog, err := Compile(map[string]string{"tier.fj": tierSrc})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Transform(prog, TransformOptions{DataClasses: []string{"Big", "Main"}})
	if err != nil {
		t.Fatal(err)
	}

	ref, err := Run(p2, WithHeapSize(16<<20))
	if err != nil {
		t.Fatalf("DRAM-only: %v", err)
	}
	refOut := ref.Output()
	refStats := ref.Stats()
	ref.Close()
	if refStats.Offheap.PagesSpilled != 0 {
		t.Fatalf("untiered run reports %d spills", refStats.Offheap.PagesSpilled)
	}
	// The omitempty contract: an untiered run's stats JSON carries no
	// tiering keys, so pre-tier golden outputs stay byte-identical.
	if b, err := json.Marshal(refStats.Offheap); err != nil {
		t.Fatal(err)
	} else if strings.Contains(string(b), "pages_spilled") {
		t.Fatalf("untiered OffheapStats JSON leaks tier keys: %s", b)
	}

	for _, high := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("high=%d", high), func(t *testing.T) {
			dir := t.TempDir()
			res, err := Run(p2, WithHeapSize(16<<20), WithTiering(dir, high))
			if err != nil {
				t.Fatalf("tiered: %v", err)
			}
			defer closeClean(t, res, dir)
			if out := res.Output(); out != refOut {
				t.Fatalf("tiered output diverges:\nDRAM: %q\ntier: %q", refOut, out)
			}
			st := res.Stats()
			if st.Offheap.PagesSpilled == 0 {
				t.Fatalf("watermark %d never spilled (created %d pages, hw %d) — equivalence is vacuous",
					high, st.Offheap.PagesCreated, st.Offheap.PagesLiveHW)
			}
			if st.Offheap.PagesPromoted == 0 {
				t.Fatal("pages spilled but none promoted; live records were never re-read from disk")
			}
			if st.Offheap.SpillBytes == 0 || st.Offheap.PromoteBytes == 0 {
				t.Fatalf("byte counters not populated: spill=%d promote=%d",
					st.Offheap.SpillBytes, st.Offheap.PromoteBytes)
			}
			if got := st.Counters[obs.CtrPagesSpilled]; got != st.Offheap.PagesSpilled {
				t.Fatalf("counter %s = %d, stats say %d", obs.CtrPagesSpilled, got, st.Offheap.PagesSpilled)
			}
			// The run's thread is still open at Stats time, so its pool
			// pages remain live — but every live page is accounted for in
			// exactly one tier.
			if st.Offheap.PagesResident+st.Offheap.PagesDisk != st.Offheap.PagesLive {
				t.Fatalf("tier accounting: resident=%d disk=%d live=%d",
					st.Offheap.PagesResident, st.Offheap.PagesDisk, st.Offheap.PagesLive)
			}
		})
	}
}

// TestTierEquivalenceExamples runs every shipped example tiered vs not —
// the examples are the programs users actually see, so they anchor the
// battery.
func TestTierEquivalenceExamples(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "examples", "*", "*.fj"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no example programs found")
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			r, err := Vet(map[string]string{path: string(src)})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := Run(r.P2, WithHeapSize(64<<20))
			if err != nil {
				t.Fatal(err)
			}
			refOut := ref.Output()
			ref.Close()
			dir := t.TempDir()
			res, err := Run(r.P2, WithHeapSize(64<<20), WithTiering(dir, 2))
			if err != nil {
				t.Fatalf("tiered: %v", err)
			}
			defer closeClean(t, res, dir)
			if out := res.Output(); out != refOut {
				t.Fatalf("tiered output diverges:\nDRAM: %q\ntier: %q", refOut, out)
			}
		})
	}
}

// TestTierReusedVMTearsDownSpill guards warm-VM isolation for the disk
// tier the way TestWithReusedVMClearsPageQuota does for quotas: a job's
// spill file must not outlive the job, and a later untiered job on the
// same VM must not inherit a tier.
func TestTierReusedVMTearsDownSpill(t *testing.T) {
	prog, err := Compile(map[string]string{"tier.fj": tierSrc})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Transform(prog, TransformOptions{DataClasses: []string{"Big", "Main"}})
	if err != nil {
		t.Fatal(err)
	}
	spillFiles := func(dir string) int {
		m, err := filepath.Glob(filepath.Join(dir, "spill-*.pages"))
		if err != nil {
			t.Fatal(err)
		}
		return len(m)
	}

	dir1 := t.TempDir()
	r1, err := Run(p2, WithHeapSize(16<<20), WithTiering(dir1, 4))
	if err != nil {
		t.Fatal(err)
	}
	out := r1.Output()
	if r1.Stats().Offheap.PagesSpilled == 0 {
		t.Fatal("first run never spilled; teardown check is vacuous")
	}
	if n := spillFiles(dir1); n != 1 {
		t.Fatalf("expected 1 spill file during VM lifetime, found %d", n)
	}
	closeClean(t, r1, dir1)

	// Reuse tiered into a different directory: the reset must drop the
	// old spill file before the new job starts.
	dir2 := t.TempDir()
	r2, err := Run(p2, WithHeapSize(16<<20), WithTiering(dir2, 4), WithReusedVM(r1.VM))
	if err != nil {
		t.Fatalf("tiered reuse: %v", err)
	}
	if got := r2.Output(); got != out {
		t.Fatalf("warm tiered replay diverges: %q vs %q", got, out)
	}
	if n := spillFiles(dir1); n != 0 {
		t.Fatalf("previous job's spill file leaked across reuse: %d left in %s", n, dir1)
	}
	closeClean(t, r2, dir2)

	// Reuse untiered: no tier may carry over, and dir2's file is gone.
	r3, err := Run(p2, WithHeapSize(16<<20), WithReusedVM(r2.VM))
	if err != nil {
		t.Fatalf("untiered reuse: %v", err)
	}
	defer r3.Close()
	if got := r3.Output(); got != out {
		t.Fatalf("untiered warm replay diverges: %q vs %q", got, out)
	}
	st := r3.Stats()
	if st.Offheap.PagesSpilled != 0 {
		t.Fatalf("untiered job on a warm VM spilled %d pages; tier leaked across reuse", st.Offheap.PagesSpilled)
	}
	if n := spillFiles(dir2); n != 0 {
		t.Fatalf("spill file leaked into untiered reuse: %d left in %s", n, dir2)
	}
}
