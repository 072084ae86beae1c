package facade

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ir"
	"repro/internal/obs"
)

// slowLoopSrc runs for seconds at interpreter speed — long enough that a
// cancellation mid-run is guaranteed to land on a safepoint poll.
const slowLoopSrc = `
class Main {
    static void main() {
        long acc = 0L;
        for (long i = 0L; i < 4000000000L; i = i + 1) {
            acc = acc + i;
        }
        Sys.println(acc);
    }
}
`

func TestRunContextCancelMidRun(t *testing.T) {
	prog, err := Compile(map[string]string{"t.fj": slowLoopSrc})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := RunContext(ctx, prog, WithHeapSize(8<<20))
	elapsed := time.Since(start)
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want *CanceledError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatal("CanceledError does not unwrap to context.Canceled")
	}
	if res == nil {
		t.Fatal("canceled run returned no partial result")
	}
	res.Close()
	// The loop alone runs for many seconds; cancellation must unwind at
	// the next safepoint, not at the end.
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; safepoint polling is not working", elapsed)
	}
}

func TestRunContextDeadline(t *testing.T) {
	prog, err := Compile(map[string]string{"t.fj": slowLoopSrc})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	res, err := RunContext(ctx, prog, WithHeapSize(8<<20))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded through CanceledError", err)
	}
	if res != nil {
		res.Close()
	}
}

func TestRunContextPreCanceled(t *testing.T) {
	prog, err := Compile(map[string]string{"t.fj": `
class Main {
    static void main() { Sys.println(1); }
}
`})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, prog)
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want *CanceledError", err)
	}
	if res != nil {
		t.Fatal("pre-canceled context must not start the run")
	}
}

// reuseSrc mixes heap allocation, statics via rand, and data-class records
// so VM reuse has real state to reset: string cache, RNG, heap arena,
// and (under transform) the page store.
const reuseSrc = `
// facadec: data=Rec,Main
class Rec {
    long a;
    Rec(long a) { this.a = a; }
}
class Main {
    static void main() {
        long acc = 0L;
        for (int it = 0; it < 5; it = it + 1) {
            Sys.iterStart();
            for (int i = 0; i < 1000; i = i + 1) {
                Rec r = new Rec(Sys.rand(1000));
                acc = acc + r.a;
            }
            Sys.iterEnd();
        }
        Sys.println(acc);
    }
}
`

func TestWithReusedVMBitIdenticalAndReseeded(t *testing.T) {
	for _, transform := range []bool{false, true} {
		t.Run(fmt.Sprintf("transform=%v", transform), func(t *testing.T) {
			prog, err := Compile(map[string]string{"t.fj": reuseSrc})
			if err != nil {
				t.Fatal(err)
			}
			p := prog
			if transform {
				p, err = Transform(prog, TransformOptions{DataClasses: []string{"Rec", "Main"}})
				if err != nil {
					t.Fatal(err)
				}
			}
			r1, err := Run(p, WithHeapSize(8<<20), WithRandSeed(9))
			if err != nil {
				t.Fatal(err)
			}
			out1 := r1.Output()
			r1.Close()

			// Same seed on the reused VM: byte-identical replay.
			r2, err := Run(p, WithHeapSize(8<<20), WithRandSeed(9), WithReusedVM(r1.VM))
			if err != nil {
				t.Fatalf("reused run: %v", err)
			}
			if out2 := r2.Output(); out2 != out1 {
				t.Fatalf("warm replay diverges: %q vs %q", out2, out1)
			}
			r2.Close()

			// Different seed on the same VM: the RNG must have been
			// reset, not continued.
			r3, err := Run(p, WithHeapSize(8<<20), WithRandSeed(10), WithReusedVM(r2.VM))
			if err != nil {
				t.Fatal(err)
			}
			if r3.Output() == out1 {
				t.Fatal("different seed produced identical output; job state leaked across reuse")
			}
			r3.Close()
		})
	}
}

// promotionSrc keeps a list alive while garbage arrays force minor
// collections, so every run promotes list nodes into the old generation.
const promotionSrc = `
class Node { long v; Node next; Node(long v) { this.v = v; } }
class Main {
    static void main() {
        Node head = null;
        long acc = 0L;
        for (int i = 0; i < 4000; i = i + 1) {
            Node n = new Node(i);
            n.next = head;
            head = n;
            long[] junk = new long[64];
            junk[0] = i;
            acc = acc + junk[0];
        }
        Node c = head;
        while (c != null) { acc = acc + c.v; c = c.next; }
        Sys.println(acc);
    }
}
`

// oversizeSrc fills a data array larger than a page in every iteration,
// each shorter than the last, so a store takes every one after the first
// from its oversize pool, dirty past the new array's end.
const oversizeSrc = `
class Main {
    static void main() {
        long acc = 0L;
        for (int it = 0; it < 5; it = it + 1) {
            Sys.iterStart();
            long[] xs = new long[20000 - 3000 * it];
            for (int i = 0; i < xs.length; i = i + 1) {
                xs[i] = Sys.rand(1000) + i;
            }
            for (int i = 0; i < xs.length; i = i + 1) {
                acc = acc * 31L + xs[i];
            }
            Sys.iterEnd();
        }
        Sys.println(acc);
    }
}
`

// TestWithReusedVMMatchesFreshHeap runs promotionSrc (P), reuseSrc's P′
// and oversizeSrc's P′ three times each on one warm VM at one GC worker: ResetForReuse
// rebinds the heap and the page store to the next job's registry instead of
// zeroing their counts by hand, so every run must match a fresh VM's in
// output and on every count — each field of Heap and Offheap, every
// counter, gauge and histogram of the snapshot, the per-class allocations.
// Only time-valued entries are skipped (GCTime and the *_ns histograms),
// and a warm page store takes from its pool what a fresh one creates, so
// P′ compares created plus recycled pages.
func TestWithReusedVMMatchesFreshHeap(t *testing.T) {
	prog, err := Compile(map[string]string{"t.fj": promotionSrc})
	if err != nil {
		t.Fatal(err)
	}
	iters, err := Compile(map[string]string{"t.fj": reuseSrc})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Transform(iters, TransformOptions{DataClasses: []string{"Rec", "Main"}})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Compile(map[string]string{"t.fj": oversizeSrc})
	if err != nil {
		t.Fatal(err)
	}
	p2big, err := Transform(big, TransformOptions{DataClasses: []string{"Main"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, leg := range []struct {
		name string
		p    *ir.Program
	}{{"P", prog}, {"P'", p2}, {"P' oversize", p2big}} {
		t.Run(leg.name, func(t *testing.T) {
			run := func(extra ...Option) (RunStats, *Result) {
				t.Helper()
				res, err := Run(leg.p, append([]Option{WithHeapSize(2 << 20), WithGCWorkers(1)}, extra...)...)
				if err != nil {
					t.Fatal(err)
				}
				st := res.Stats()
				res.Close()
				return st, res
			}
			fresh, res := run()
			want := res.Output()
			if !leg.p.Transformed && (fresh.Heap.Promoted == 0 || fresh.Heap.MinorGCs == 0) {
				t.Fatalf("program neither collects nor promotes: %+v", fresh.Heap)
			}
			if leg.p.Transformed && (fresh.Offheap.PagesRecycled == 0 || fresh.Counters[obs.CtrRecordsReleased] == 0) {
				t.Fatalf("P′ leg neither recycles pages nor releases records: %+v", fresh.Offheap)
			}
			if leg.p == p2big && fresh.Offheap.Oversize < 5 {
				t.Fatalf("oversize leg made %d oversize arrays, want 5: %+v", fresh.Offheap.Oversize, fresh.Offheap)
			}
			for i := 1; i <= 3; i++ {
				var warm RunStats
				warm, res = run(WithReusedVM(res.VM))
				if got := res.Output(); got != want {
					t.Fatalf("warm run %d output %q, fresh VM %q", i, got, want)
				}
				if leg.p.Transformed && warm.Offheap.PagesCreated != 0 {
					t.Errorf("warm run %d created %d page(s) on a warm store", i, warm.Offheap.PagesCreated)
				}
				for _, d := range booksDiffer(fresh, warm) {
					t.Errorf("warm run %d: %s", i, d)
				}
			}
		})
	}
}

// booksDiffer lists every count in which a warm run's stats differ from a
// fresh run's, skipping time-valued entries; a warm page store's created
// and recycled pages are compared as their sum.
func booksDiffer(fresh, warm RunStats) []string {
	var diffs []string
	differ := func(what string, f, w any) {
		if !reflect.DeepEqual(f, w) {
			diffs = append(diffs, fmt.Sprintf("%s: fresh %+v, warm %+v", what, f, w))
		}
	}
	fh, wh := fresh.Heap, warm.Heap
	fh.GCTime, wh.GCTime = 0, 0
	differ("Heap", fh, wh)
	fo, wo := fresh.Offheap, warm.Offheap
	fo.PagesRecycled, fo.PagesCreated = fo.PagesRecycled+fo.PagesCreated, 0
	wo.PagesRecycled, wo.PagesCreated = wo.PagesRecycled+wo.PagesCreated, 0
	differ("Offheap (created+recycled as recycled)", fo, wo)
	differ("VM", fresh.VM, warm.VM)
	differ("ClassAllocs", fresh.ClassAllocs, warm.ClassAllocs)
	pool := func(m map[string]int64) map[string]int64 {
		out := maps.Clone(m)
		out[obs.CtrPageRecycles] += out[obs.CtrPagesCreated]
		delete(out, obs.CtrPagesCreated)
		return out
	}
	differ("counters (created+recycled as recycles)", pool(fresh.Counters), pool(warm.Counters))
	differ("gauges", fresh.Gauges, warm.Gauges)
	untimed := func(m map[string]Histogram) map[string]Histogram {
		out := maps.Clone(m)
		for name := range out {
			if strings.HasSuffix(name, "_ns") {
				delete(out, name)
			}
		}
		return out
	}
	differ("histograms", untimed(fresh.Histograms), untimed(warm.Histograms))
	return diffs
}

// TestWithReusedVMClearsPageQuota guards cross-job isolation: a warm VM
// used by a quota-bearing job must not carry that quota into a later job
// that set none (the later job would spuriously hit ErrPageQuota).
func TestWithReusedVMClearsPageQuota(t *testing.T) {
	prog, err := Compile(map[string]string{"t.fj": reuseSrc})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Transform(prog, TransformOptions{DataClasses: []string{"Rec", "Main"}})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Run(p, WithHeapSize(8<<20), WithRandSeed(9), WithPageQuota(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	out1 := r1.Output()
	r1.Close()
	if q := r1.VM.RT.PageQuota(); q != 1<<20 {
		t.Fatalf("quota after quota-bearing run = %d, want %d", q, 1<<20)
	}

	// Reuse with no quota option: the previous job's cap must be gone.
	r2, err := Run(p, WithHeapSize(8<<20), WithRandSeed(9), WithReusedVM(r1.VM))
	if err != nil {
		t.Fatalf("quota leaked into reused run: %v", err)
	}
	defer r2.Close()
	if q := r2.VM.RT.PageQuota(); q != 0 {
		t.Fatalf("reused VM still has quota %d; stale cap survived reuse", q)
	}
	if out2 := r2.Output(); out2 != out1 {
		t.Fatalf("reused run diverges: %q vs %q", out2, out1)
	}
}

func TestWithReusedVMRejectsMismatches(t *testing.T) {
	progA, err := Compile(map[string]string{"t.fj": reuseSrc})
	if err != nil {
		t.Fatal(err)
	}
	progB, err := Compile(map[string]string{"t.fj": reuseSrc})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(progA, WithHeapSize(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := Run(progB, WithHeapSize(8<<20), WithReusedVM(r.VM)); err == nil {
		t.Fatal("reuse across different programs must fail")
	}
	if _, err := Run(progA, WithHeapSize(16<<20), WithReusedVM(r.VM)); err == nil {
		t.Fatal("reuse across heap sizes must fail")
	}
}

// TestConcurrentRunsBitIdentical is the issue's concurrency battery:
// parallel Run calls with distinct heap budgets and fault seeds must
// produce exactly the per-config outputs (and errors) the same configs
// produce sequentially. Run under -race in CI.
func TestConcurrentRunsBitIdentical(t *testing.T) {
	prog, err := Compile(map[string]string{"t.fj": reuseSrc})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Transform(prog, TransformOptions{DataClasses: []string{"Rec", "Main"}})
	if err != nil {
		t.Fatal(err)
	}
	type config struct {
		transformed bool
		heap        int
		seed        int64
		faults      string
	}
	var configs []config
	for _, transformed := range []bool{false, true} {
		for _, heap := range []int{2 << 20, 8 << 20} {
			for i, faults := range []string{"", "alloc=0.00005,seed=11", "page=0.001,seed=23"} {
				configs = append(configs, config{transformed, heap, int64(i + 1), faults})
			}
		}
	}
	run := func(c config) (string, string) {
		pr := prog
		if c.transformed {
			pr = p2
		}
		opts := []Option{WithHeapSize(c.heap), WithRandSeed(c.seed)}
		if c.faults != "" {
			opts = append(opts, WithFaults(c.faults))
		}
		res, err := Run(pr, opts...)
		var out, errStr string
		if res != nil {
			out = res.Output()
			res.Close()
		}
		if err != nil {
			errStr = err.Error()
		}
		return out, errStr
	}

	// Sequential oracle.
	wantOut := make([]string, len(configs))
	wantErr := make([]string, len(configs))
	for i, c := range configs {
		wantOut[i], wantErr[i] = run(c)
	}

	// Same configs, all at once.
	gotOut := make([]string, len(configs))
	gotErr := make([]string, len(configs))
	var wg sync.WaitGroup
	for i, c := range configs {
		wg.Add(1)
		go func(i int, c config) {
			defer wg.Done()
			gotOut[i], gotErr[i] = run(c)
		}(i, c)
	}
	wg.Wait()

	for i, c := range configs {
		if gotOut[i] != wantOut[i] || gotErr[i] != wantErr[i] {
			t.Errorf("config %+v diverges under concurrency:\n  out %q vs %q\n  err %q vs %q",
				c, gotOut[i], wantOut[i], gotErr[i], wantErr[i])
		}
	}
}
