package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// seededSrc prints a value derived from Sys.rand, so runs with different
// seeds produce different output — any state bleeding between pooled runs
// shows up as a wrong sum.
const seededSrc = `
class Main {
    static void main() {
        long acc = 0L;
        for (int i = 0; i < 500; i = i + 1) {
            acc = acc + Sys.rand(100000);
        }
        Sys.println(acc);
    }
}
`

// churnSrc allocates data-class records across iterations — the workload
// shape that exercises the page store under -transform and the GC under
// plain runs.
const churnSrc = `
// facadec: data=Rec,Main
class Rec {
    long a;
    long b;
    Rec(long a) { this.a = a; this.b = a * 2L; }
}
class Main {
    static void main() {
        long acc = 0L;
        for (int it = 0; it < 10; it = it + 1) {
            Sys.iterStart();
            for (int i = 0; i < 2000; i = i + 1) {
                Rec r = new Rec(i);
                acc = acc + r.b;
            }
            Sys.iterEnd();
        }
        Sys.println(acc);
    }
}
`

// slowSrc runs long enough (hundreds of ms at interpreter speed) for a
// cancel request to land while it is executing.
const slowSrc = `
class Main {
    static void main() {
        long acc = 0L;
        for (long i = 0L; i < 2000000000L; i = i + 1) {
            acc = acc + i;
        }
        Sys.println(acc);
    }
}
`

func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, stop := context.WithTimeout(context.Background(), 30*time.Second)
		defer stop()
		s.Shutdown(ctx)
	})
	return s, &Client{BaseURL: "http://" + s.Addr()}
}

// oneShot runs the same request through facade.Run directly — the oracle
// daemon outputs must match byte for byte.
func oneShot(t *testing.T, req SubmitRequest) string {
	t.Helper()
	req.Schema = Schema
	out, _, err := OneShot(req)
	if err != nil {
		t.Fatalf("one-shot: %v", err)
	}
	return out
}

func submitWait(t *testing.T, c *Client, req SubmitRequest) JobStatus {
	t.Helper()
	resp, err := c.Submit(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, err := c.Wait(resp.JobID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	return st
}

func TestWarmReuseBitIdenticalToOneShot(t *testing.T) {
	_, c := newTestServer(t, Config{MaxConcurrent: 1})
	seed := int64(5)
	req := SubmitRequest{
		Sources:  map[string]string{"s.fj": seededSrc},
		HeapSize: 8 << 20,
		RandSeed: &seed,
	}
	want := oneShot(t, req)

	first := submitWait(t, c, req)
	if first.State != StateDone {
		t.Fatalf("first job: %s (%s)", first.State, first.Error)
	}
	if first.WarmHit {
		t.Fatal("first job cannot be a warm hit")
	}
	if first.Output != want {
		t.Fatalf("cold run diverges from one-shot: %q vs %q", first.Output, want)
	}

	second := submitWait(t, c, req)
	if second.State != StateDone {
		t.Fatalf("second job: %s (%s)", second.State, second.Error)
	}
	if !second.WarmHit {
		t.Fatal("second identical job must reuse the warm VM")
	}
	if second.Output != want {
		t.Fatalf("warm run diverges from one-shot: %q vs %q", second.Output, want)
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.WarmHits < 1 {
		t.Fatalf("server.warm_hits = %d, want >= 1", st.WarmHits)
	}
	if second.Stats == nil || second.Stats.VM.Instructions == 0 {
		t.Fatal("job status carries no run stats")
	}
}

func TestWarmReuseAcrossTransformedRuns(t *testing.T) {
	_, c := newTestServer(t, Config{MaxConcurrent: 1})
	req := SubmitRequest{
		Sources:   map[string]string{"churn.fj": churnSrc},
		Transform: true,
		HeapSize:  8 << 20,
	}
	want := oneShot(t, req)
	first := submitWait(t, c, req)
	second := submitWait(t, c, req)
	for i, st := range []JobStatus{first, second} {
		if st.State != StateDone {
			t.Fatalf("job %d: %s (%s)", i, st.State, st.Error)
		}
		if st.Output != want {
			t.Fatalf("job %d diverges from one-shot: %q vs %q", i, st.Output, want)
		}
	}
	if !second.WarmHit {
		t.Fatal("transformed rerun must hit the warm pool")
	}
	if second.Stats.Offheap.Records == 0 {
		t.Fatal("transformed run recorded no off-heap records")
	}
}

// TestTieredJobOnWarmPool: a job running with the off-heap disk tier must
// produce output bit-identical to an untiered one-shot of the same
// request, report its spill traffic in the job stats, and leave no spill
// file behind once its VM returns to the warm pool (put-time reset tears
// the tier down). The warm rerun re-enables the tier from scratch.
func TestTieredJobOnWarmPool(t *testing.T) {
	// Unlike churnSrc, this workload keeps records live across iterations
	// (the pad arrays give each record real bulk), so the resident page
	// set genuinely exceeds a small watermark and pages must spill.
	const tieredSrc = `
// facadec: data=Big,Main
class Big {
    long a;
    int[] pad;
    Big(long a) { this.a = a; this.pad = new int[900]; }
}
class Main {
    static void main() {
        Big[] keep = new Big[30];
        for (int i = 0; i < 30; i = i + 1) { keep[i] = new Big(i * 17L); }
        long acc = 0L;
        for (int it = 0; it < 5; it = it + 1) {
            Sys.iterStart();
            for (int i = 0; i < 200; i = i + 1) {
                Big b = new Big(i);
                acc = acc + b.a + b.pad.length;
            }
            Sys.iterEnd();
            for (int i = 0; i < 30; i = i + 1) { acc = acc + keep[i].a; }
        }
        Sys.println(acc);
    }
}
`
	_, c := newTestServer(t, Config{MaxConcurrent: 1})
	tierDir := t.TempDir()
	req := SubmitRequest{
		Sources:   map[string]string{"tiered.fj": tieredSrc},
		Transform: true,
		HeapSize:  8 << 20,
	}
	want := oneShot(t, req) // untiered oracle

	req.TierDir = tierDir
	req.TierHighPages = 2
	first := submitWait(t, c, req)
	second := submitWait(t, c, req)
	for i, st := range []JobStatus{first, second} {
		if st.State != StateDone {
			t.Fatalf("job %d: %s (%s)", i, st.State, st.Error)
		}
		if st.Output != want {
			t.Fatalf("tiered job %d diverges from untiered one-shot: %q vs %q", i, st.Output, want)
		}
		if st.Stats == nil || st.Stats.Offheap.PagesSpilled == 0 {
			t.Fatalf("tiered job %d reports no spill traffic", i)
		}
	}
	if !second.WarmHit {
		t.Fatal("tiered rerun must hit the warm pool")
	}
	// The put-time reset closes the tier; the spill file must be gone
	// shortly after the last job reaches a terminal state.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ents, err := os.ReadDir(tierDir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("spill files leaked after jobs finished: %v", ents)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFaultCrashDoesNotPoisonPool is the chaos case from the issue: a
// tenant job crashing mid-run (injected faults) must leave the daemon
// healthy, and the next job on the same program must succeed with
// bit-identical output.
func TestFaultCrashDoesNotPoisonPool(t *testing.T) {
	for _, transform := range []bool{false, true} {
		t.Run(fmt.Sprintf("transform=%v", transform), func(t *testing.T) {
			_, c := newTestServer(t, Config{MaxConcurrent: 1})
			clean := SubmitRequest{
				Sources:   map[string]string{"churn.fj": churnSrc},
				Transform: transform,
				HeapSize:  8 << 20,
			}
			want := oneShot(t, clean)

			// Prime the pool with a successful run, then crash one.
			if st := submitWait(t, c, clean); st.State != StateDone {
				t.Fatalf("prime: %s (%s)", st.State, st.Error)
			}
			crash := clean
			crash.Faults = "alloc=1,page=1,seed=3"
			st := submitWait(t, c, crash)
			if st.State != StateFailed {
				t.Fatalf("fault job: got %s (output %q), want failed", st.State, st.Output)
			}

			// The crash must not poison the pool: the next clean job
			// succeeds and replays the exact one-shot output.
			after := submitWait(t, c, clean)
			if after.State != StateDone {
				t.Fatalf("post-crash job: %s (%s)", after.State, after.Error)
			}
			if after.Output != want {
				t.Fatalf("post-crash output diverges: %q vs %q", after.Output, want)
			}
			status, err := c.Status()
			if err != nil {
				t.Fatal(err)
			}
			if status.JobsFailed != 1 || status.JobsDone != 2 {
				t.Fatalf("status: done=%d failed=%d, want 2/1", status.JobsDone, status.JobsFailed)
			}
		})
	}
}

func TestAggregateBudgetRejectsWithRetryAfter(t *testing.T) {
	_, c := newTestServer(t, Config{HeapBudget: 32 << 20})
	_, err := c.Submit(SubmitRequest{
		Sources:  map[string]string{"s.fj": seededSrc},
		HeapSize: 64 << 20,
	})
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("got %v, want RejectedError", err)
	}
	if rej.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0", rej.RetryAfter)
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.JobsRejected != 1 {
		t.Fatalf("jobs_rejected = %d, want 1", st.JobsRejected)
	}
}

func TestTenantBudgetIsolation(t *testing.T) {
	_, c := newTestServer(t, Config{MaxConcurrent: 1, TenantBudget: 64 << 20})
	// A slow job from "small" holds its 48 MiB reservation...
	slow, err := c.Submit(SubmitRequest{
		Tenant:   "small",
		Sources:  map[string]string{"slow.fj": slowSrc},
		HeapSize: 48 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	// ...so a second 48 MiB job from the same tenant is over budget...
	_, err = c.Submit(SubmitRequest{
		Tenant:   "small",
		Sources:  map[string]string{"s.fj": seededSrc},
		HeapSize: 48 << 20,
	})
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("same-tenant overcommit: got %v, want RejectedError", err)
	}
	if !strings.Contains(rej.Message, `tenant "small"`) {
		t.Fatalf("rejection does not name the tenant: %s", rej.Message)
	}
	// ...while another tenant is unaffected.
	other, err := c.Submit(SubmitRequest{
		Tenant:   "other",
		Sources:  map[string]string{"s.fj": seededSrc},
		HeapSize: 48 << 20,
	})
	if err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
	if _, err := c.Cancel(slow.JobID); err != nil {
		t.Fatal(err)
	}
	if st, err := c.Wait(other.JobID); err != nil || st.State != StateDone {
		t.Fatalf("other tenant job: %v %s (%s)", err, st.State, st.Error)
	}
}

func TestConcurrentTenantsDeterministic(t *testing.T) {
	_, c := newTestServer(t, Config{MaxConcurrent: 4})
	const n = 8
	seeds := make([]int64, n)
	wants := make([]string, n)
	for i := range seeds {
		seeds[i] = int64(100 + i*17)
		wants[i] = oneShot(t, SubmitRequest{
			Sources:  map[string]string{"s.fj": seededSrc},
			HeapSize: 8 << 20,
			RandSeed: &seeds[i],
		})
	}
	var wg sync.WaitGroup
	outs := make([]JobStatus, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := c.Submit(SubmitRequest{
				Tenant:   fmt.Sprintf("tenant-%d", i%3),
				Priority: i % 2,
				Sources:  map[string]string{"s.fj": seededSrc},
				HeapSize: 8 << 20,
				RandSeed: &seeds[i],
			})
			if err != nil {
				errs[i] = err
				return
			}
			outs[i], errs[i] = c.Wait(resp.JobID)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if outs[i].State != StateDone {
			t.Fatalf("job %d: %s (%s)", i, outs[i].State, outs[i].Error)
		}
		if outs[i].Output != wants[i] {
			t.Fatalf("job %d (seed %d) diverges under concurrency: %q vs %q",
				i, seeds[i], outs[i].Output, wants[i])
		}
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.WarmHits == 0 {
		t.Fatal("concurrent identical programs produced no warm hits")
	}
	if st.HeapReserved != 0 {
		t.Fatalf("heap still reserved after all jobs done: %d", st.HeapReserved)
	}
}

func TestCancelRunningJob(t *testing.T) {
	_, c := newTestServer(t, Config{})
	resp, err := c.Submit(SubmitRequest{
		Sources:  map[string]string{"slow.fj": slowSrc},
		HeapSize: 8 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until it is actually executing so the cancel exercises the
	// interpreter's safepoint poll, not the queue path.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := c.Job(resp.JobID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := c.Cancel(resp.JobID); err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(resp.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}
	if !strings.Contains(st.Error, "canceled") {
		t.Fatalf("error %q does not mention cancellation", st.Error)
	}
}

func TestPageQuotaEnforced(t *testing.T) {
	_, c := newTestServer(t, Config{})
	req := SubmitRequest{
		Sources:   map[string]string{"churn.fj": churnSrc},
		Transform: true,
		HeapSize:  8 << 20,
		PageQuota: 1,
	}
	st := submitWait(t, c, req)
	if st.State != StateFailed {
		t.Fatalf("state = %s, want failed under 1-page quota", st.State)
	}
	if !strings.Contains(st.Error, "quota") {
		t.Fatalf("error %q does not mention the quota", st.Error)
	}
}

func TestIdleAutoShutdownRemovesPortFile(t *testing.T) {
	pf := t.TempDir() + "/port.json"
	s, err := New(Config{PortFile: pf, IdleTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Discover(pf); err != nil {
		t.Fatalf("discovery before idle: %v", err)
	}
	done := make(chan struct{})
	go func() { s.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down after idle timeout")
	}
	if _, err := os.Stat(pf); !os.IsNotExist(err) {
		t.Fatalf("port file still present after shutdown: %v", err)
	}
}

func TestShutdownEndpointDrains(t *testing.T) {
	s, c := newTestServer(t, Config{})
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { s.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not stop after POST /v1/shutdown")
	}
	// Submissions after shutdown fail at the transport or admission layer.
	if _, err := c.Submit(SubmitRequest{Sources: map[string]string{"s.fj": seededSrc}}); err == nil {
		t.Fatal("submit succeeded against a stopped daemon")
	}
}

func TestCompileErrorFailsJob(t *testing.T) {
	_, c := newTestServer(t, Config{})
	st := submitWait(t, c, SubmitRequest{
		Sources: map[string]string{"bad.fj": "class Main { static void main() { this is not fj } }"},
	})
	if st.State != StateFailed {
		t.Fatalf("state = %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, "compile") {
		t.Fatalf("error %q does not mention compilation", st.Error)
	}
}
