package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/region"
)

// mediumSrc runs for roughly half a second at interpreter speed — long
// enough to observe running/replaying/draining phases, short enough to
// complete. (slowSrc, by contrast, never finishes inside a test and is
// only ever canceled.)
const mediumSrc = `
class Main {
    static void main() {
        long acc = 0L;
        for (long i = 0L; i < 15000000L; i = i + 1) {
            acc = acc + i;
        }
        Sys.println(acc);
    }
}
`

// newJournaledServer starts a daemon wired to a journal path, for
// crash/restart tests that outlive one incarnation.
func newJournaledServer(t *testing.T, cfg Config) (*Server, *Client) {
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

// TestMalformedFaultsRefusedAtSubmit: a job whose faults spec does not
// parse is answered 400 at submit, before anything about it reaches the
// journal, instead of being admitted and failing at run time.
func TestMalformedFaultsRefusedAtSubmit(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "faults.journal")
	s, _ := newJournaledServer(t, Config{MaxConcurrent: 1, JournalPath: jp})
	for _, spec := range []string{"drop=NaN", "alloc=2", "bogus=1"} {
		body, err := json.Marshal(SubmitRequest{Schema: Schema, Sources: map[string]string{"s.fj": seededSrc}, HeapSize: 8 << 20, Faults: spec})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post("http://"+s.Addr()+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("faults %q: HTTP %d, want 400", spec, resp.StatusCode)
		}
	}
	events, err := readJournal(jp)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if ev.JobID != "" {
			t.Errorf("a refused job reached the journal: %+v", ev)
		}
	}
}

func waitReady(t *testing.T, s *Server) {
	t.Helper()
	ctx, stop := context.WithTimeout(context.Background(), 120*time.Second)
	defer stop()
	if err := s.WaitReady(ctx); err != nil {
		t.Fatalf("server never became ready: %v", err)
	}
}

// TestCrashRecoveryChaos is the tentpole chaos case: a mixed batch of
// jobs across tenants is in flight — some done, some running, some
// queued — when the daemon dies as if SIGKILLed (journal abandoned
// mid-group-commit, port file left behind). A fresh incarnation on the
// same journal must bring every acknowledged job to a terminal state with
// output bit-identical to a crash-free run.
func TestCrashRecoveryChaos(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "chaos.journal")
	cfg := Config{MaxConcurrent: 2, JournalPath: jp}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c1 := &Client{BaseURL: "http://" + s1.Addr()}

	type item struct {
		id   string
		want string
	}
	var items []item
	for i := 0; i < 10; i++ {
		var req SubmitRequest
		if i%3 == 2 {
			req = SubmitRequest{
				Tenant:    "batch",
				Sources:   map[string]string{"churn.fj": churnSrc},
				Transform: true,
				HeapSize:  8 << 20,
			}
		} else {
			seed := int64(40 + i*13)
			req = SubmitRequest{
				Tenant:   fmt.Sprintf("tenant-%d", i%2),
				Sources:  map[string]string{"s.fj": seededSrc},
				HeapSize: 8 << 20,
				RandSeed: &seed,
			}
		}
		want := oneShot(t, req)
		resp, err := c1.Submit(req)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		items = append(items, item{resp.JobID, want})
	}

	// Die mid-batch. Every submission above was acknowledged, so every
	// job is durably journaled; whatever was running is simply lost and
	// must be re-run by the next incarnation.
	s1.Kill()

	s2, c2 := newJournaledServer(t, cfg)
	waitReady(t, s2)
	for i, it := range items {
		st, err := c2.Wait(it.id)
		if err != nil {
			t.Fatalf("job %d (%s) after recovery: %v", i, it.id, err)
		}
		if st.State != StateDone {
			t.Fatalf("job %d (%s) after recovery: %s (%s)", i, it.id, st.State, st.Error)
		}
		if st.Output != it.want {
			t.Fatalf("job %d (%s) output diverges after crash recovery:\n got %q\nwant %q",
				i, it.id, st.Output, it.want)
		}
	}
	status, err := c2.Status()
	if err != nil {
		t.Fatal(err)
	}
	if status.Phase != PhaseReady {
		t.Fatalf("phase after replay = %s, want ready", status.Phase)
	}
}

// TestReadyzDuringReplay pins the readiness gate: while the new
// incarnation is re-running recovered jobs, /v1/readyz answers 503 with
// phase "replaying" and submissions are refused with a Retry-After —
// then, once replay converges, the daemon is ready and accepts work.
func TestReadyzDuringReplay(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "replay.journal")
	cfg := Config{MaxConcurrent: 1, JournalPath: jp}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c1 := &Client{BaseURL: "http://" + s1.Addr()}
	if rs, err := c1.Ready(); err != nil || !rs.Ready || rs.Phase != PhaseReady {
		t.Fatalf("fresh daemon readyz: %+v, %v", rs, err)
	}
	want := oneShot(t, SubmitRequest{Sources: map[string]string{"med.fj": mediumSrc}, HeapSize: 8 << 20})
	resp, err := c1.Submit(SubmitRequest{Sources: map[string]string{"med.fj": mediumSrc}, HeapSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s1.Kill()

	s2, c2 := newJournaledServer(t, cfg)
	// The recovered job takes hundreds of ms to re-run; these checks land
	// well inside that window.
	rs, err := c2.Ready()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Ready || rs.Phase != PhaseReplaying {
		t.Fatalf("readyz during replay = %+v, want not-ready/replaying", rs)
	}
	_, err = c2.Submit(SubmitRequest{Sources: map[string]string{"s.fj": seededSrc}, HeapSize: 8 << 20})
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("submit during replay: %v, want RejectedError", err)
	}
	if rej.RetryAfter <= 0 {
		t.Fatalf("replay rejection carries no Retry-After: %v", rej)
	}

	waitReady(t, s2)
	if rs, err := c2.Ready(); err != nil || !rs.Ready {
		t.Fatalf("readyz after replay: %+v, %v", rs, err)
	}
	st, err := c2.Wait(resp.JobID)
	if err != nil || st.State != StateDone || st.Output != want {
		t.Fatalf("recovered job: %v %s output %q (want %q)", err, st.State, st.Output, want)
	}
	// And the daemon accepts new work again.
	if st := submitWait(t, c2, SubmitRequest{Sources: map[string]string{"s.fj": seededSrc}, HeapSize: 8 << 20}); st.State != StateDone {
		t.Fatalf("post-replay submit: %s (%s)", st.State, st.Error)
	}
}

// TestDrainPreservesQueuedJobs pins the SIGTERM semantics: a drain lets
// the running job finish (journaled terminal), refuses new submissions,
// leaves the queued job non-terminal in the sealed journal, and the next
// incarnation replays it to completion. Once both incarnations are stopped
// and dropped, every heap arena and page body their VMs took, warm pool
// included, goes back to the region source.
func TestDrainPreservesQueuedJobs(t *testing.T) {
	runtime.GC()
	base := region.InUse()
	drainAndReplay(t)
	for deadline := time.Now().Add(10 * time.Second); region.InUse() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d regions still handed out 10 s after the daemons were dropped, baseline %d", region.InUse(), base)
		}
		runtime.GC()
	}
}

// drainAndReplay drains one incarnation of a journaled daemon and replays
// its queued job in a second, which it stops before returning.
func drainAndReplay(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "drain.journal")
	cfg := Config{MaxConcurrent: 1, JournalPath: jp, DrainTimeout: 60 * time.Second}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c1 := &Client{BaseURL: "http://" + s1.Addr()}

	slowWant := oneShot(t, SubmitRequest{Sources: map[string]string{"med.fj": mediumSrc}, HeapSize: 8 << 20})
	seed := int64(77)
	queuedReq := SubmitRequest{Sources: map[string]string{"s.fj": seededSrc}, HeapSize: 8 << 20, RandSeed: &seed}
	queuedWant := oneShot(t, queuedReq)

	running, err := c1.Submit(SubmitRequest{Sources: map[string]string{"med.fj": mediumSrc}, HeapSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := c1.Job(running.JobID)
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
	queued, err := c1.Submit(queuedReq)
	if err != nil {
		t.Fatal(err)
	}

	drainDone := make(chan error, 1)
	go func() {
		ctx, stop := context.WithTimeout(context.Background(), 120*time.Second)
		defer stop()
		drainDone <- s1.Drain(ctx)
	}()
	for s1.Phase() != PhaseDraining {
		time.Sleep(time.Millisecond)
	}
	// Draining: not ready, admission closed.
	if rs, err := c1.Ready(); err != nil || rs.Ready || rs.Phase != PhaseDraining {
		t.Fatalf("readyz during drain = %+v, %v", rs, err)
	}
	_, err = c1.Submit(SubmitRequest{Sources: map[string]string{"s.fj": seededSrc}, HeapSize: 8 << 20})
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("submit during drain: %v, want RejectedError", err)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, stop := context.WithTimeout(context.Background(), 30*time.Second)
		defer stop()
		s2.Shutdown(ctx)
	}()
	c2 := &Client{BaseURL: "http://" + s2.Addr()}
	waitReady(t, s2)
	// The running job finished during the drain; its outcome survived in
	// the journal and is queryable without re-running.
	st, err := c2.Job(running.JobID)
	if err != nil || st.State != StateDone || st.Output != slowWant {
		t.Fatalf("drained running job: %v %s output %q (want %q)", err, st.State, st.Output, slowWant)
	}
	// The queued job was never started, stayed durable, and ran here.
	st, err = c2.Wait(queued.JobID)
	if err != nil || st.State != StateDone || st.Output != queuedWant {
		t.Fatalf("checkpointed queued job: %v %s output %q (want %q)", err, st.State, st.Output, queuedWant)
	}
	status, err := c2.Status()
	if err != nil {
		t.Fatal(err)
	}
	if status.JobsReplayed != 1 {
		t.Fatalf("jobs_replayed = %d, want 1", status.JobsReplayed)
	}
}

// TestDeadlineExceededTyped pins deadline enforcement on a running job:
// the interpreter is stopped at a safepoint, the failure is typed
// (ErrorKind "deadline", *DeadlineError from JobStatus.Err), and a
// concurrent job from another tenant is untouched.
func TestDeadlineExceededTyped(t *testing.T) {
	_, c := newTestServer(t, Config{MaxConcurrent: 2})
	seed := int64(9)
	otherReq := SubmitRequest{
		Tenant:   "other",
		Sources:  map[string]string{"s.fj": seededSrc},
		HeapSize: 8 << 20,
		RandSeed: &seed,
	}
	otherWant := oneShot(t, otherReq)

	slow, err := c.Submit(SubmitRequest{
		Tenant:         "victim",
		Sources:        map[string]string{"slow.fj": slowSrc},
		HeapSize:       8 << 20,
		DeadlineMillis: 150,
	})
	if err != nil {
		t.Fatal(err)
	}
	other, err := c.Submit(otherReq)
	if err != nil {
		t.Fatal(err)
	}

	st, err := c.Wait(slow.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || st.ErrorKind != ErrKindDeadline {
		t.Fatalf("deadline job: %s kind %q (%s)", st.State, st.ErrorKind, st.Error)
	}
	var de *DeadlineError
	if !errors.As(st.Err(), &de) {
		t.Fatalf("JobStatus.Err() = %v, want *DeadlineError", st.Err())
	}
	if de.JobID != slow.JobID || de.Limit != 150*time.Millisecond {
		t.Fatalf("DeadlineError fields: %+v", de)
	}

	ost, err := c.Wait(other.JobID)
	if err != nil || ost.State != StateDone || ost.Output != otherWant {
		t.Fatalf("other tenant was affected: %v %s output %q (want %q)", err, ost.State, ost.Output, otherWant)
	}
}

// TestDeadlineExpiresWhileQueued: a job whose deadline passes before an
// execution slot frees up fails with the same typed error without ever
// running — the deadline bounds end-to-end latency, not just run time.
func TestDeadlineExpiresWhileQueued(t *testing.T) {
	_, c := newTestServer(t, Config{MaxConcurrent: 1})
	hog, err := c.Submit(SubmitRequest{Sources: map[string]string{"slow.fj": slowSrc}, HeapSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	q, err := c.Submit(SubmitRequest{
		Sources:        map[string]string{"s.fj": seededSrc},
		HeapSize:       8 << 20,
		DeadlineMillis: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(q.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || st.ErrorKind != ErrKindDeadline {
		t.Fatalf("queued deadline job: %s kind %q (%s)", st.State, st.ErrorKind, st.Error)
	}
	if st.RunningNanos != 0 {
		t.Fatalf("job ran for %dns despite expiring in the queue", st.RunningNanos)
	}
	if _, err := c.Cancel(hog.JobID); err != nil {
		t.Fatal(err)
	}
}

// TestTransientRetrySucceeds: an injected crash on attempt 1
// (alloc=0.004,seed=17 deterministically fails the first run) is
// classified transient and re-run with a re-derived fault stream; the
// second attempt succeeds with output identical to a fault-free run.
func TestTransientRetrySucceeds(t *testing.T) {
	_, c := newTestServer(t, Config{MaxConcurrent: 1})
	clean := SubmitRequest{Sources: map[string]string{"churn.fj": churnSrc}, HeapSize: 8 << 20}
	want := oneShot(t, clean)
	faulty := clean
	faulty.Faults = "alloc=0.004,seed=17"
	faulty.MaxAttempts = 3

	st := submitWait(t, c, faulty)
	if st.State != StateDone {
		t.Fatalf("retried job: %s kind %q (%s)", st.State, st.ErrorKind, st.Error)
	}
	if st.Attempt != 2 {
		t.Fatalf("attempt = %d, want 2 (fail once, then succeed)", st.Attempt)
	}
	if st.Output != want {
		t.Fatalf("retried output diverges: %q vs %q", st.Output, want)
	}
	status, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if status.JobsRetried != 1 {
		t.Fatalf("jobs_retried = %d, want 1", status.JobsRetried)
	}
}

// TestTransientRetryExhaustsAttempts: a fault that fires on every attempt
// (alloc=1) burns the whole attempt budget and fails transient with the
// attempt count on record.
func TestTransientRetryExhaustsAttempts(t *testing.T) {
	_, c := newTestServer(t, Config{MaxConcurrent: 1})
	st := submitWait(t, c, SubmitRequest{
		Sources:     map[string]string{"churn.fj": churnSrc},
		HeapSize:    8 << 20,
		Faults:      "alloc=1,seed=3",
		MaxAttempts: 3,
	})
	if st.State != StateFailed || st.ErrorKind != ErrKindTransient {
		t.Fatalf("exhausted job: %s kind %q (%s)", st.State, st.ErrorKind, st.Error)
	}
	if st.Attempt != 3 {
		t.Fatalf("attempt = %d, want 3", st.Attempt)
	}
	status, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if status.JobsRetried != 2 {
		t.Fatalf("jobs_retried = %d, want 2", status.JobsRetried)
	}
}

// TestDeterministicFailureNeverRetries: an OME from a genuinely too-small
// heap is deterministic — re-running cannot help, so the daemon must not
// burn attempts on it.
func TestDeterministicFailureNeverRetries(t *testing.T) {
	_, c := newTestServer(t, Config{MaxConcurrent: 1})
	// A retained linked list no heap of this size can hold: a real,
	// reproducible OutOfMemoryError, not an injected one.
	const oomSrc = `
class Node {
    long v;
    Node next;
    Node(long v, Node next) { this.v = v; this.next = next; }
}
class Main {
    static void main() {
        Node head = null;
        for (int i = 0; i < 1000000; i = i + 1) {
            head = new Node(i, head);
        }
        Sys.println(head.v);
    }
}
`
	st := submitWait(t, c, SubmitRequest{
		Sources:     map[string]string{"oom.fj": oomSrc},
		HeapSize:    1 << 20,
		MaxAttempts: 5,
	})
	if st.State != StateFailed || st.ErrorKind != ErrKindDeterministic {
		t.Fatalf("OME job: %s kind %q (%s)", st.State, st.ErrorKind, st.Error)
	}
	if st.Attempt != 1 {
		t.Fatalf("deterministic failure was retried: attempt %d", st.Attempt)
	}
	status, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if status.JobsRetried != 0 {
		t.Fatalf("jobs_retried = %d, want 0", status.JobsRetried)
	}
}

// TestDaemonFaultSpecCrashHook wires the daemon-level killat schedule to
// an in-process CrashFn: after the scheduled journal append the hook
// fires, the daemon is killed, and a clean restart (no fault spec)
// recovers every acknowledged job — the in-process twin of the CI
// daemon-recovery smoke, which does the same with a real os.Exit.
func TestDaemonFaultSpecCrashHook(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "killat.journal")
	crashed := make(chan struct{})
	var once sync.Once
	cfg := Config{
		MaxConcurrent: 1,
		JournalPath:   jp,
		FaultSpec:     "killat=3",
		CrashFn:       func() { once.Do(func() { close(crashed) }) },
	}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c1 := &Client{BaseURL: "http://" + s1.Addr()}

	type item struct {
		id   string
		want string
	}
	var items []item
	for i := 0; i < 3; i++ {
		seed := int64(200 + i)
		req := SubmitRequest{Sources: map[string]string{"s.fj": seededSrc}, HeapSize: 8 << 20, RandSeed: &seed}
		want := oneShot(t, req)
		resp, err := c1.Submit(req)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		items = append(items, item{resp.JobID, want})
	}
	select {
	case <-crashed:
	case <-time.After(30 * time.Second):
		t.Fatal("killat=3 crash hook never fired")
	}
	s1.Kill()

	clean := cfg
	clean.FaultSpec = ""
	clean.CrashFn = nil
	s2, c2 := newJournaledServer(t, clean)
	waitReady(t, s2)
	for i, it := range items {
		st, err := c2.Wait(it.id)
		if err != nil || st.State != StateDone || st.Output != it.want {
			t.Fatalf("job %d after killat crash: %v %s output %q (want %q)", i, err, st.State, st.Output, it.want)
		}
	}
}
