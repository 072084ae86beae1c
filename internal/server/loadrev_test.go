package server

// Regression tests for the daemon bugs that only show up under sustained
// load (revealed by the repro load harness, internal/load): lockstep
// backpressure hints, history-cap eviction of still-awaited results, and
// idle self-termination under an in-flight request.

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestRetryHintScalesWithLoad: the 429 backoff hint must grow with queue
// depth and reservation pressure. A flat constant makes every rejected
// client in a burst back off identically and re-stampede together.
func TestRetryHintScalesWithLoad(t *testing.T) {
	s, c := newTestServer(t, Config{MaxConcurrent: 1, HeapBudget: 8 << 20})

	rejected := func(req SubmitRequest) time.Duration {
		t.Helper()
		_, err := c.Submit(req)
		rej, ok := err.(*RejectedError)
		if !ok {
			t.Fatalf("expected RejectedError, got %v", err)
		}
		return rej.RetryAfter
	}

	// Light load: empty daemon, request alone exceeds the budget.
	light := rejected(SubmitRequest{
		Sources:  map[string]string{"s.fj": seededSrc},
		HeapSize: 16 << 20,
	})

	// Heavy load: one slow job running, several queued, budget exhausted.
	slow, err := c.Submit(SubmitRequest{
		Sources:  map[string]string{"s.fj": slowSrc},
		HeapSize: 1 << 20,
	})
	if err != nil {
		t.Fatalf("slow submit: %v", err)
	}
	var queued []string
	for i := 0; i < 7; i++ {
		resp, err := c.Submit(SubmitRequest{
			Sources:  map[string]string{"s.fj": seededSrc},
			HeapSize: 1 << 20,
		})
		if err != nil {
			t.Fatalf("queued submit %d: %v", i, err)
		}
		queued = append(queued, resp.JobID)
	}
	heavy := rejected(SubmitRequest{
		Sources:  map[string]string{"s.fj": seededSrc},
		HeapSize: 1 << 20,
	})

	if heavy <= light {
		t.Fatalf("hint does not scale with load: light=%v heavy=%v", light, heavy)
	}
	if light <= 0 || light >= time.Second {
		t.Fatalf("light hint %v outside millisecond-precision range", light)
	}
	s.mu.Lock()
	hint := s.retryHintLocked()
	s.mu.Unlock()
	if hint > retryHintMax*int64(time.Millisecond) {
		t.Fatalf("hint %d above cap", hint)
	}

	// Unwedge: cancel everything so Cleanup's shutdown is fast.
	c.Cancel(slow.JobID)
	for _, id := range queued {
		c.Cancel(id)
	}
}

// TestSubmitWithRetryPrefersBodyHint: when the daemon supplies a
// millisecond-precision retry_after_ms, the client must back off on that
// — not on the whole-second Retry-After header and not on its own (much
// larger) exponential schedule.
func TestSubmitWithRetryPrefersBodyHint(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Retry-After", "1") // coarse, rounded up
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(ErrorResponse{Schema: Schema, Error: "busy", RetryAfterMillis: 40})
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(SubmitResponse{Schema: Schema, JobID: "job-000001", State: StateQueued})
	}))
	defer srv.Close()

	var slept []time.Duration
	var rejections int
	c := &Client{BaseURL: srv.URL}
	_, err := c.SubmitWithRetry(SubmitRequest{Sources: map[string]string{"a.fj": "x"}}, SubmitOptions{
		MaxRetries:  3,
		BaseBackoff: 3 * time.Second, // exponential fallback would be huge
		Seed:        11,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
		OnReject:    func(*RejectedError) { rejections++ },
	})
	if err != nil {
		t.Fatalf("SubmitWithRetry: %v", err)
	}
	if len(slept) != 1 || rejections != 1 {
		t.Fatalf("slept %v, rejections %d; want one backoff", slept, rejections)
	}
	// 40ms hint + jitter in [0, 20ms]: far under both the 1s header and
	// the 3s exponential fallback.
	if slept[0] < 40*time.Millisecond || slept[0] > 100*time.Millisecond {
		t.Fatalf("backoff %v, want the 40ms body hint (+jitter), not the coarse header or exponential", slept[0])
	}
}

// TestPruneKeepsUnfetchedTerminalJob fills the job history past
// MaxJobHistory while a client still has a Wait outstanding on an
// already-completed job (it finished between the client's long-poll
// windows and was never fetched). The cap must not turn that completed
// job into a 404; once its result HAS been served, the cap applies again.
func TestPruneKeepsUnfetchedTerminalJob(t *testing.T) {
	s, c := newTestServer(t, Config{MaxConcurrent: 2, MaxJobHistory: 2})
	seed := int64(3)
	req := SubmitRequest{
		Sources:  map[string]string{"s.fj": seededSrc},
		HeapSize: 8 << 20,
		RandSeed: &seed,
	}

	// Submit job A and let it finish WITHOUT ever fetching its status —
	// the moral equivalent of a Wait client between poll windows.
	respA, err := c.Submit(req)
	if err != nil {
		t.Fatalf("submit A: %v", err)
	}
	s.mu.Lock()
	jA := s.jobs.byID[respA.JobID]
	s.mu.Unlock()
	select {
	case <-jA.done:
	case <-time.After(30 * time.Second):
		t.Fatal("job A did not finish")
	}

	// Fill the history well past the cap with fetched jobs.
	for i := 0; i < 6; i++ {
		st := submitWait(t, c, req)
		if st.State != StateDone {
			t.Fatalf("filler job %d: %s (%s)", i, st.State, st.Error)
		}
	}

	// The outstanding Wait now fetches A: it must still be there.
	st, err := c.Wait(respA.JobID)
	if err != nil {
		t.Fatalf("completed job evicted before its result was ever fetched: %v", err)
	}
	if st.State != StateDone || st.Output == "" {
		t.Fatalf("job A status = %s output %q", st.State, st.Output)
	}

	// A has been fetched once; the history cap applies to it again.
	for i := 0; i < 4; i++ {
		submitWait(t, c, req)
	}
	if _, err := c.Job(respA.JobID); err == nil || !strings.Contains(err.Error(), "no such job") {
		t.Fatalf("fetched job A survived the cap indefinitely: err=%v", err)
	}
}

// TestIdleWatchCountsInflightRequests: a daemon with a short idle timeout
// must not self-terminate while an HTTP request is still in flight — the
// gap between a load generator's ramp-up connect and its first submit
// burst. The request here is a submit whose body arrives slowly, held
// open across several idle periods.
func TestIdleWatchCountsInflightRequests(t *testing.T) {
	s, _ := newTestServer(t, Config{IdleTimeout: 150 * time.Millisecond})

	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Headers complete, body deliberately unfinished: the submit handler
	// blocks reading it, holding one request in flight.
	partial := "POST /v1/jobs HTTP/1.1\r\nHost: repro\r\nContent-Type: application/json\r\nContent-Length: 400\r\n\r\n{\"schema\":"
	if _, err := conn.Write([]byte(partial)); err != nil {
		t.Fatal(err)
	}

	// Hold the request open for several idle periods; the daemon must
	// stay up the whole time.
	select {
	case <-s.stopped:
		t.Fatal("daemon idle-shutdown fired under an in-flight request")
	case <-time.After(5 * s.cfg.IdleTimeout):
	}

	// Release the request; with nothing in flight the idle watch may now
	// shut the daemon down.
	conn.Close()
	select {
	case <-s.stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not idle out after the in-flight request ended")
	}
}
