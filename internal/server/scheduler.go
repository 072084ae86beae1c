package server

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"slices"
	"time"

	"repro/facade"
	"repro/internal/faults"
	"repro/internal/ir"
	"repro/internal/obs"
)

// byRank orders runnable jobs: higher Priority first, FIFO (by seq) within
// a priority level. seq is unique, so the order is total.
func byRank(a, b *job) int {
	if c := cmp.Compare(b.req.Priority, a.req.Priority); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// runQueue owns what waits for an execution slot (kept sorted byRank), how
// many slots are taken, and the two gauges that mirror them. A job stopped
// while waiting stays in line until pop skips it.
type runQueue struct {
	waiting  []*job
	running  int
	gQueued  *obs.Gauge
	gRunning *obs.Gauge
}

func newRunQueue(reg *obs.Registry) runQueue {
	return runQueue{gQueued: reg.Gauge(obs.GaugeServerQueued), gRunning: reg.Gauge(obs.GaugeServerRunning)}
}

func (q *runQueue) push(j *job) {
	i, _ := slices.BinarySearchFunc(q.waiting, j, byRank)
	q.waiting = slices.Insert(q.waiting, i, j)
	q.gQueued.Set(int64(len(q.waiting)))
}

// pop returns the next job to run, or nil when nothing runnable waits.
func (q *runQueue) pop() *job {
	var next *job
	for next == nil && len(q.waiting) > 0 {
		if j := q.waiting[0]; !j.terminal() {
			next = j
		}
		q.waiting = slices.Delete(q.waiting, 0, 1)
	}
	q.gQueued.Set(int64(len(q.waiting)))
	return next
}

func (q *runQueue) started() { q.running++; q.gRunning.Set(int64(q.running)) }
func (q *runQueue) stopped() { q.running--; q.gRunning.Set(int64(q.running)) }

// depth is the work ahead of a newcomer: waiting plus running.
func (q *runQueue) depth() int { return len(q.waiting) + q.running }

// position is j's 1-based place in line (0 if it is not waiting).
func (q *runQueue) position(j *job) int { return slices.Index(q.waiting, j) + 1 }

func (s *Server) kickScheduler() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// schedule moves queued jobs into execution slots as capacity frees up.
// During a drain it starts nothing: queued jobs stay checkpointed for the
// next incarnation.
func (s *Server) schedule() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stopped:
			return
		case <-s.kick:
		}
		for {
			s.mu.Lock()
			var j *job
			if !s.stopping && !s.draining && s.runq.running < s.cfg.MaxConcurrent {
				j = s.runq.pop()
			}
			if j == nil {
				s.mu.Unlock()
				break
			}
			j.state = StateRunning
			j.startedAt = time.Now()
			s.runq.started()
			s.mu.Unlock()
			s.wg.Add(1)
			go s.runJob(j)
		}
	}
}

// runJob executes one attempt of an admitted job end to end: resolve the
// compiled program (shared cache), take a warm VM when one matches, run
// through facade.RunContext under the job's context, and return the VM to
// the pool. Transient failures are re-queued with backoff up to the job's
// attempt budget.
func (s *Server) runJob(j *job) {
	defer s.wg.Done()
	defer s.kickScheduler()

	s.mu.Lock()
	attempt := j.attempt
	s.mu.Unlock()
	s.journalAppend(journalEvent{
		Kind: jevStarted, Seq: j.seq, JobID: j.id, Tenant: j.tenant, Attempt: attempt,
	}, false)

	key := programKey(&j.req)
	prog, err := s.progs.get(key, func() (*ir.Program, error) { return compileRequest(&j.req) })
	if err != nil {
		s.finish(j, result{state: StateFailed, errMsg: "compile: " + err.Error(), errKind: ErrKindDeterministic})
		return
	}

	vk := vmKey{prog: key, heap: j.req.HeapSize}
	warm := s.pool.take(vk)
	if warm != nil && warm.Prog != prog {
		// The program was evicted from the cache and recompiled since
		// this VM was pooled; WithReusedVM requires pointer identity.
		s.pool.drop()
		warm = nil
	}
	opts := runOptions(&j.req)
	if warm != nil {
		opts = append(opts, facade.WithReusedVM(warm))
	}
	if attempt >= 2 {
		// Re-derive the fault streams per attempt: an automatic re-run
		// must not deterministically replay the injected failure that
		// caused it (recovery replay restarts at attempt 1, so crash-free
		// and post-crash runs still match bit for bit).
		opts = append(opts, facade.WithFaultAttempt(attempt))
	}

	s.mu.Lock()
	j.warmHit = warm != nil
	s.mu.Unlock()

	res, runErr := facade.RunContext(j.ctx, prog, opts...)
	output, stats := collect(res)
	if res != nil {
		// Return the VM for reuse; put re-verifies it and drops it (a
		// pool rebuild) when a crashed run left threads or pages behind.
		s.pool.put(vk, res.VM)
	}
	r := result{state: StateDone}
	if runErr != nil {
		r = outcome(runErr)
		if r.errKind == ErrKindTransient && attempt < j.req.MaxAttempts && s.retryLater(j) {
			return
		}
	}
	r.output, r.stats = output, stats
	s.finish(j, r)
}

// outcome is the one classifier: it sorts the error that ended a job into
// the retry taxonomy (docs/ROBUSTNESS.md) and the terminal state and
// message that go with it. A passed deadline and a cancellation are
// surfaced as such; injected faults and warm-VM reset failures are
// transient (environment trouble — re-running can succeed); everything
// else — verify/lint errors, OutOfMemoryError, page quotas — is
// deterministic and fails fast, because a deterministic program re-run
// against the same inputs can only fail the same way.
func outcome(err error) result {
	var de *DeadlineError
	var ce *facade.CanceledError
	switch {
	case errors.As(err, &de):
		return result{state: StateFailed, errMsg: de.Error(), errKind: ErrKindDeadline}
	case errors.As(err, &ce):
		return result{state: StateCanceled, errMsg: err.Error(), errKind: ErrKindCanceled}
	case errors.Is(err, faults.ErrInjected), errors.Is(err, faults.ErrNotReusable):
		return result{state: StateFailed, errMsg: err.Error(), errKind: ErrKindTransient}
	}
	return result{state: StateFailed, errMsg: err.Error(), errKind: ErrKindDeterministic}
}

// stopLocked is the one way a job is stopped from outside — client cancel,
// shutdown, deadline expiry. Ending its context unwinds a running attempt
// at the next safepoint and runJob reports how it ended; a job that is
// queued or backing off has no one to do that, so it is finished here,
// classified as the interrupted run would have been. A no-op on a terminal
// job. Caller holds s.mu.
func (s *Server) stopLocked(j *job, cause error) {
	j.cancel(cause)
	if j.state == StateQueued {
		r := outcome(&facade.CanceledError{Cause: cause})
		r.errMsg = cause.Error() // never ran: the cause itself, without the run's prefix
		s.finishLocked(j, r)
	}
}

// retryLater re-queues a transiently failed job after a capped
// exponential backoff with deterministic jitter, both a function of (job
// seq, attempt) — reproducible run to run. Returns false when the
// daemon is stopping/draining or the job has been stopped or has run out
// of deadline — the caller then fails the job instead.
func (s *Server) retryLater(j *job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.terminal() || s.stopping || s.draining || j.ctx.Err() != nil {
		return false
	}
	j.attempt++
	j.state = StateQueued
	s.runq.stopped()
	s.cRetried.Add(1)
	delay := jittered(backoff(s.retryBase, s.retryMax, j.attempt-2), j.seq, j.attempt)
	time.AfterFunc(delay, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if j.terminal() || s.stopping {
			return
		}
		s.runq.push(j)
		s.kickScheduler()
	})
	return true
}

func (s *Server) finish(j *job, r result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finishLocked(j, r)
}

// finishLocked moves a job to a terminal state, releases its budget
// reservation and its context, journals the outcome, and wakes any status
// long-pollers. Caller holds s.mu.
func (s *Server) finishLocked(j *job, r result) {
	if j.terminal() {
		return
	}
	if j.state == StateRunning {
		s.runq.stopped()
	}
	j.result = r
	j.finishedAt = time.Now()
	if j.startedAt.IsZero() {
		j.startedAt = j.finishedAt
	}
	j.cancel(nil)
	s.budget.release(j.tenant, j.reserved())
	switch r.state {
	case StateDone:
		s.cDone.Add(1)
	case StateFailed:
		s.cFailed.Add(1)
	case StateCanceled:
		s.cCanceled.Add(1)
	}
	if r.errKind == ErrKindDeadline {
		s.cDeadline.Add(1)
	}
	if j.recovered && s.replayLeft > 0 {
		s.replayLeft--
		if s.replayLeft == 0 {
			s.gReplaying.Set(0)
			close(s.ready)
		}
	}
	s.lastActivity = j.finishedAt
	s.jobs.finish(j)
	s.jobs.prune(j.finishedAt)
	s.journalAppend(journalEvent{
		Kind: jevDone, Seq: j.seq, JobID: j.id, Tenant: j.tenant, Attempt: j.attempt,
		State: r.state, ErrKind: r.errKind, Output: r.output, Error: r.errMsg,
	}, false)
	close(j.done)
}

// runOptions maps a submit request onto facade options. The daemon
// execution path and the client-side one-shot path share this mapping, so
// the same request runs bit-identically either way.
func runOptions(req *SubmitRequest) []facade.Option {
	opts := []facade.Option{facade.WithHeapSize(req.HeapSize)}
	if req.Entry != "" {
		opts = append(opts, facade.WithEntry(req.Entry))
	}
	if req.RandSeed != nil {
		opts = append(opts, facade.WithRandSeed(*req.RandSeed))
	}
	if req.PageQuota > 0 {
		opts = append(opts, facade.WithPageQuota(req.PageQuota))
	}
	if req.TierHighPages > 0 {
		dir := req.TierDir
		if dir == "" {
			dir = os.TempDir()
		}
		opts = append(opts, facade.WithTiering(dir, req.TierHighPages))
	}
	if req.Faults != "" {
		opts = append(opts, facade.WithFaults(req.Faults))
	}
	return opts
}

// OneShot runs a submit request in-process, without a daemon: the exact
// compile-and-run path runJob takes, minus warm-pool reuse. `repro submit
// -oneshot` uses it, and the CI daemon smoke compares daemon outputs
// against it byte for byte.
func OneShot(req SubmitRequest) (string, *facade.RunStats, error) {
	req.Schema = Schema
	if err := req.normalize(); err != nil {
		return "", nil, err
	}
	prog, err := compileRequest(&req)
	if err != nil {
		return "", nil, fmt.Errorf("compile: %w", err)
	}
	res, err := facade.Run(prog, runOptions(&req)...)
	out, stats := collect(res)
	return out, stats, err
}

// collect closes a finished run and returns what it printed and measured
// (nothing for a run that never got a VM).
func collect(res *facade.Result) (string, *facade.RunStats) {
	if res == nil {
		return "", nil
	}
	defer res.Close()
	if res.VM == nil {
		return res.Output(), nil
	}
	st := res.Stats()
	return res.Output(), &st
}
