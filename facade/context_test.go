package facade

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
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

// TestWithReusedVMMatchesFreshHeap runs promotionSrc three times on one
// warm VM: ResetForReuse must leave the heap as a fresh VM's, so every run
// matches a fresh VM in output, promotions and minor collections.
func TestWithReusedVMMatchesFreshHeap(t *testing.T) {
	prog, err := Compile(map[string]string{"t.fj": promotionSrc})
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		out                string
		promoted, minorGCs int64
	}
	run := func(extra ...Option) (outcome, *Result) {
		t.Helper()
		res, err := Run(prog, append([]Option{WithHeapSize(2 << 20)}, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats()
		res.Close()
		return outcome{res.Output(), st.Heap.Promoted, st.Heap.MinorGCs}, res
	}
	fresh, _ := run()
	if fresh.promoted == 0 || fresh.minorGCs == 0 {
		t.Fatalf("program neither collects nor promotes: %+v", fresh)
	}
	var warm []Option
	for i := 0; i < 3; i++ {
		got, res := run(warm...)
		if got != fresh {
			t.Fatalf("run %d (warm=%v) = %+v, fresh VM = %+v", i, i > 0, got, fresh)
		}
		warm = []Option{WithReusedVM(res.VM)}
	}
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
