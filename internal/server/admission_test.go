package server

import (
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
)

// newCore is a daemon with no listener, journal or goroutines: the
// scheduling state alone, driven by hand.
func newCore(cfg Config) *Server { return newServer(cfg.withDefaults()) }

func testRequest(heap int) SubmitRequest {
	req := SubmitRequest{Schema: Schema, Sources: map[string]string{"s.fj": seededSrc}, HeapSize: heap}
	if err := req.normalize(); err != nil {
		panic(err)
	}
	return req
}

func TestNormalize(t *testing.T) {
	req := SubmitRequest{Schema: Schema, Sources: map[string]string{"s.fj": seededSrc}}
	if err := req.normalize(); err != nil {
		t.Fatal(err)
	}
	if req.HeapSize != 64<<20 || req.Tenant != "default" {
		t.Fatalf("defaults: heap %d tenant %q", req.HeapSize, req.Tenant)
	}
	req.Tenant, req.HeapSize = "acme", 1<<20
	if err := req.normalize(); err != nil || req.Tenant != "acme" || req.HeapSize != 1<<20 {
		t.Fatalf("normalize overwrote explicit values: %+v (%v)", req, err)
	}
	bad := SubmitRequest{Schema: Schema}
	if err := bad.normalize(); err == nil {
		t.Fatal("normalize accepted a request without sources")
	}
}

func TestBudgetRoomAndPressure(t *testing.T) {
	b := newBudget(100, 40, map[string]int64{"big": 90, "unmetered": 0}, obs.NewRegistry())
	b.reserve("a", 30)
	if err := b.room("a", 20); err == nil {
		t.Fatal("tenant a over its default limit was given room")
	}
	if err := b.room("big", 70); err != nil {
		t.Fatalf("override not honoured: %v", err)
	}
	if err := b.room("unmetered", 70); err != nil {
		t.Fatalf("a zero override means no tenant limit: %v", err)
	}
	if err := b.room("big", 71); err == nil {
		t.Fatal("aggregate limit not enforced")
	}
	if got := b.pressure(100); got != 130 {
		t.Fatalf("pressure at 30%% full = %d, want 130", got)
	}
	b.reserve("big", 70)
	if got := b.pressure(100); got != 200 {
		t.Fatalf("pressure at a full budget = %d, want 200", got)
	}
}

// TestBudgetSymmetry follows one reservation through everything that can
// happen to it — a rejected neighbour, a transient failure and retry, a
// stop, a daemon restart — and checks after every step that the aggregate,
// the per-tenant split and the gauge agree, and that it all returns to 0.
func TestBudgetSymmetry(t *testing.T) {
	const heap = 8 << 20
	s := newCore(Config{HeapBudget: 10 << 20, RetryBase: time.Hour, RetryMax: time.Hour})
	check := func(s *Server, want int64) {
		t.Helper()
		s.mu.Lock()
		defer s.mu.Unlock()
		var tenants int64
		for _, n := range s.budget.tenants {
			tenants += n
		}
		if s.budget.reserved != want || tenants != want || s.budget.gauge.Load() != want {
			t.Fatalf("reserved %d, tenants sum %d, gauge %d; want all %d",
				s.budget.reserved, tenants, s.budget.gauge.Load(), want)
		}
	}

	req := testRequest(heap)
	req.MaxAttempts = 3
	j, refused := s.submit(req)
	if refused != nil {
		t.Fatalf("submit: %+v", refused)
	}
	check(s, heap)

	if _, refused := s.submit(req); refused == nil || refused.code != http.StatusTooManyRequests || refused.retryMillis <= 0 {
		t.Fatalf("second job fit a 10 MiB budget: %+v", refused)
	}
	check(s, heap) // a rejection reserves nothing

	// Attempt 1 starts, fails transiently, and backs off: still reserved.
	s.mu.Lock()
	if got := s.runq.pop(); got != j {
		t.Fatalf("popped %v, want the submitted job", got)
	}
	j.state = StateRunning
	s.runq.started()
	s.mu.Unlock()
	if !s.retryLater(j) {
		t.Fatal("retryLater refused a healthy job")
	}
	check(s, heap)
	if j.state != StateQueued || j.attempt != 2 || s.runq.running != 0 {
		t.Fatalf("backing off: state %q attempt %d running %d", j.state, j.attempt, s.runq.running)
	}

	s.mu.Lock()
	s.stopLocked(j, errCanceledByClient)
	s.mu.Unlock()
	check(s, 0)

	// Restart: the journal holds one finished job and one that never ran.
	path := filepath.Join(t.TempDir(), "j.journal")
	done, pending := testRequest(heap), testRequest(heap)
	if err := rewriteJournal(path, []journalEvent{
		{Kind: jevSubmitted, Seq: 1, JobID: "job-000001", Tenant: "default", Req: &done},
		{Kind: jevDone, Seq: 1, JobID: "job-000001", Tenant: "default", State: StateDone, Output: "1\n"},
		{Kind: jevSubmitted, Seq: 2, JobID: "job-000002", Tenant: "default", Req: &pending},
	}); err != nil {
		t.Fatal(err)
	}
	s2 := newCore(Config{HeapBudget: 10 << 20})
	s2.mu.Lock()
	err := s2.replay(path)
	s2.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	check(s2, heap) // only the unfinished job holds a reservation
	s2.mu.Lock()
	restored, _ := s2.jobs.get("job-000001")
	recovered, _ := s2.jobs.get("job-000002")
	if restored == nil || restored.state != StateDone || restored.output != "1\n" || restored.ctx.Err() == nil {
		t.Fatalf("restored terminal job: %+v", restored)
	}
	if recovered == nil || !recovered.recovered || s2.replayLeft != 1 || s2.runq.pop() != recovered {
		t.Fatalf("recovered job not re-enqueued: %+v (replayLeft %d)", recovered, s2.replayLeft)
	}
	s2.stopLocked(recovered, errShuttingDown)
	s2.mu.Unlock()
	check(s2, 0)
	if s2.replayLeft != 0 {
		t.Fatalf("replayLeft = %d after the last recovered job finished", s2.replayLeft)
	}
}
