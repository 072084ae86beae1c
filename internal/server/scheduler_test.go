package server

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/facade"
	"repro/internal/faults"
	"repro/internal/obs"
)

// TestRunQueueOrder: higher priority first, submission order within a
// priority; a retried job re-enters at its own (priority, seq) rank —
// behind all higher-priority work, ahead of peers submitted after it; jobs
// stopped while waiting are skipped; the gauges follow every step.
func TestRunQueueOrder(t *testing.T) {
	q := newRunQueue(obs.NewRegistry())
	mk := func(seq int64, prio int) *job {
		return &job{id: fmt.Sprintf("job-%06d", seq), seq: seq, result: result{state: StateQueued}, req: SubmitRequest{Priority: prio}}
	}
	jobs := []*job{mk(1, 0), mk(2, 5), mk(3, 0), mk(4, 5), mk(5, 9)}
	for _, j := range jobs {
		q.push(j)
	}
	if q.gQueued.Load() != 5 || q.depth() != 5 {
		t.Fatalf("queued gauge %d depth %d, want 5", q.gQueued.Load(), q.depth())
	}
	jobs[4].state = StateCanceled // stopped while waiting: never handed out

	first := q.pop()
	q.started()
	if first != jobs[1] || q.gRunning.Load() != 1 || q.gQueued.Load() != 3 || q.depth() != 4 {
		t.Fatalf("first pop %v (running %d, queued %d)", first.id, q.gRunning.Load(), q.gQueued.Load())
	}
	// The running job fails transiently and comes back.
	q.stopped()
	q.push(first)
	var order []int64
	for j := q.pop(); j != nil; j = q.pop() {
		order = append(order, j.seq)
	}
	if fmt.Sprint(order) != "[2 4 1 3]" {
		t.Fatalf("pop order %v, want [2 4 1 3]", order)
	}
	if q.gQueued.Load() != 0 || q.gRunning.Load() != 0 || q.depth() != 0 {
		t.Fatalf("drained queue: queued %d running %d", q.gQueued.Load(), q.gRunning.Load())
	}
}

// TestOutcome pins the one classifier, including the two sentinel classes
// and the message that reads like an injected fault but never was one.
func TestOutcome(t *testing.T) {
	de := &DeadlineError{JobID: "job-000001", Limit: time.Second}
	for _, tc := range []struct {
		err              error
		state, msg, kind string
	}{
		{&facade.CanceledError{Cause: de}, StateFailed, de.Error(), ErrKindDeadline},
		{&facade.CanceledError{Cause: errCanceledByClient}, StateCanceled, "facade: run canceled: canceled by client", ErrKindCanceled},
		{fmt.Errorf("running Main.main: %w", fmt.Errorf("heap: out of memory (%w)", faults.ErrInjected)),
			StateFailed, "running Main.main: heap: out of memory (injected fault)", ErrKindTransient},
		{fmt.Errorf("vm: %w with 1 live thread(s)", faults.ErrNotReusable),
			StateFailed, "vm: reset with 1 live thread(s)", ErrKindTransient},
		{errors.New("offheap: page store exhausted (injected tier load fault)"),
			StateFailed, "offheap: page store exhausted (injected tier load fault)", ErrKindDeterministic},
		{errors.New("OutOfMemoryError"), StateFailed, "OutOfMemoryError", ErrKindDeterministic},
	} {
		want := result{state: tc.state, errMsg: tc.msg, errKind: tc.kind}
		if got := outcome(tc.err); got != want {
			t.Errorf("outcome(%v) = %+v, want %+v", tc.err, got, want)
		}
	}
}

// TestStopLocked drives the one stop path over every cause and every state
// a job can be in.
func TestStopLocked(t *testing.T) {
	type want struct{ state, kind string }
	causes := []struct {
		name     string
		deadline bool
		cause    error // nil: the job's own deadline cause
		want     want
	}{
		{"client", false, errCanceledByClient, want{StateCanceled, ErrKindCanceled}},
		{"shutdown", false, errShuttingDown, want{StateCanceled, ErrKindCanceled}},
		{"deadline", true, nil, want{StateFailed, ErrKindDeadline}},
	}
	for _, c := range causes {
		// admit puts one job into a fresh core and returns with s.mu held,
		// so the deadline hook cannot get in before the test's own stop.
		admit := func(t *testing.T) (*Server, *job, error) {
			s := newCore(Config{})
			req := testRequest(4 << 20)
			born := time.Now()
			if c.deadline {
				req.DeadlineMillis = 100
				born = born.Add(-time.Hour) // already expired
			}
			j := newJob("job-000001", 1, req.Tenant, req, born)
			s.mu.Lock()
			t.Cleanup(s.mu.Unlock)
			s.admitLocked(j)
			s.runq.push(j)
			cause := c.cause
			if cause == nil {
				<-j.ctx.Done()
				cause = context.Cause(j.ctx)
			}
			return s, j, cause
		}

		t.Run(c.name+"/queued", func(t *testing.T) {
			s, j, cause := admit(t)
			s.stopLocked(j, cause)
			if j.state != c.want.state || j.errKind != c.want.kind || j.errMsg != cause.Error() {
				t.Fatalf("stopped queued job: %s kind %q msg %q", j.state, j.errKind, j.errMsg)
			}
			select {
			case <-j.done:
			default:
				t.Fatal("done not closed")
			}
			if s.budget.reserved != 0 || j.ctx.Err() == nil || s.runq.pop() != nil {
				t.Fatalf("reserved %d, ctx err %v after stop", s.budget.reserved, j.ctx.Err())
			}
			if !j.startedAt.Equal(j.finishedAt) {
				t.Fatal("a job that never ran reports running time")
			}
			snap := s.reg.Snapshot()
			if snap.Counters[obs.CtrServerDeadline] != int64(b2i(c.deadline)) ||
				snap.Counters[obs.CtrServerCanceled] != int64(b2i(!c.deadline)) {
				t.Fatalf("counters: %v", snap.Counters)
			}
		})

		t.Run(c.name+"/running", func(t *testing.T) {
			s, j, cause := admit(t)
			if s.runq.pop() != j {
				t.Fatal("job not runnable")
			}
			j.state = StateRunning
			j.startedAt = time.Now()
			s.runq.started()

			s.stopLocked(j, cause)
			if j.state != StateRunning || s.budget.reserved == 0 {
				t.Fatalf("stopLocked finished a running job itself: %s", j.state)
			}
			if j.ctx.Err() == nil || context.Cause(j.ctx) != cause {
				t.Fatalf("context cause = %v, want %v", context.Cause(j.ctx), cause)
			}
			// What runJob does when the interrupted attempt unwinds.
			s.finishLocked(j, outcome(&facade.CanceledError{Cause: context.Cause(j.ctx)}))
			if j.state != c.want.state || j.errKind != c.want.kind || s.runq.running != 0 || s.budget.reserved != 0 {
				t.Fatalf("interrupted job: %s kind %q running %d reserved %d", j.state, j.errKind, s.runq.running, s.budget.reserved)
			}
			if c.deadline != (j.errMsg == cause.Error()) {
				t.Fatalf("message %q", j.errMsg) // a deadline reads the same either way; a cancel carries the run prefix
			}
		})

		t.Run(c.name+"/terminal", func(t *testing.T) {
			s, j, cause := admit(t)
			s.finishLocked(j, result{state: StateDone, output: "out\n"})
			before := s.reg.Snapshot().Counters
			s.stopLocked(j, cause)
			if j.state != StateDone || j.output != "out\n" || j.errKind != "" {
				t.Fatalf("stop rewrote a finished job: %s %q kind %q", j.state, j.output, j.errKind)
			}
			if after := s.reg.Snapshot().Counters; fmt.Sprint(after) != fmt.Sprint(before) {
				t.Fatalf("counters moved: %v -> %v", before, after)
			}
		})
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
