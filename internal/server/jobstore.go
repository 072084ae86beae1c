package server

import (
	"context"
	"fmt"
	"time"

	"repro/facade"
)

// result is how a job ended: the part of a job that finishLocked writes,
// the journal's done event records, and replay restores.
type result struct {
	state, output, errMsg, errKind string
	stats                          *facade.RunStats
}

// job is one submitted run and its full lifecycle.
type job struct {
	id     string
	seq    int64
	req    SubmitRequest
	tenant string

	attempt   int  // 1-based execution attempt
	recovered bool // re-enqueued from the journal at startup

	result  // state is queued or running until the job ends
	warmHit bool
	fetched bool // a terminal status has been served at least once

	queuedAt, startedAt, finishedAt time.Time

	// ctx spans the job's whole life — queued, every attempt, the backoff
	// between them — and ends when the job is stopped, passes its deadline
	// (cause: the typed *DeadlineError) or finishes. cancel is never nil.
	ctx    context.Context
	cancel context.CancelCauseFunc
	done   chan struct{} // closed when the job reaches a terminal state
}

// reserved is what the job holds against the budgets until it is terminal.
func (j *job) reserved() int64 { return int64(j.req.HeapSize) }

// newJob builds a queued job from an already normalized request. Admission
// and journal replay both come through here; a replayed job's deadline
// budget therefore restarts at now — it bounds service latency, not
// wall-clock survival across daemon crashes.
func newJob(id string, seq int64, tenant string, req SubmitRequest, now time.Time) *job {
	j := &job{
		id:       id,
		seq:      seq,
		req:      req,
		tenant:   tenant,
		attempt:  1,
		result:   result{state: StateQueued},
		queuedAt: now,
		done:     make(chan struct{}),
	}
	j.ctx, j.cancel = context.WithCancelCause(context.Background())
	if req.DeadlineMillis > 0 {
		limit := time.Duration(req.DeadlineMillis) * time.Millisecond
		ctx, release := context.WithDeadlineCause(j.ctx, now.Add(limit), &DeadlineError{JobID: id, Limit: limit})
		cancel := j.cancel
		j.ctx, j.cancel = ctx, func(cause error) { cancel(cause); release() }
	}
	return j
}

func (j *job) terminal() bool {
	return j.state == StateDone || j.state == StateFailed || j.state == StateCanceled
}

// Retention of terminal jobs. A long-lived daemon must not pin every
// completed job's output forever, so the store forgets by age and by count.
const (
	// jobRetention is how long a terminal job (and its output) stays
	// queryable: a client that has not fetched in 15 minutes is gone.
	jobRetention = 15 * time.Minute
	// fetchGrace protects a terminal job whose result has never been
	// served from the history cap for this long after it finished, so a
	// client long-polling Wait between poll windows cannot see a completed
	// job turn into a 404 under sustained load. It must exceed the
	// long-poll window plus client turnaround. Aging evicts regardless.
	fetchGrace = 3 * longPollWindow
)

// jobStore owns the jobs the daemon can answer for: every non-terminal one,
// plus terminal ones until retention forgets them. Invariant: finished
// holds exactly the terminal jobs of byID, in finish (= finishedAt) order.
type jobStore struct {
	byID       map[string]*job
	finished   []*job
	maxHistory int // Config.MaxJobHistory; <= 0 means no cap
}

func newJobStore(maxHistory int) jobStore {
	return jobStore{byID: make(map[string]*job), maxHistory: maxHistory}
}

func (st *jobStore) add(j *job) { st.byID[j.id] = j }

func (st *jobStore) get(id string) (*job, bool) {
	j, ok := st.byID[id]
	return j, ok
}

// finish records that j, already in the store, has become terminal.
func (st *jobStore) finish(j *job) { st.finished = append(st.finished, j) }

// prune forgets terminal jobs: everything older than jobRetention, plus
// oldest-first overflow past maxHistory — except that a job whose terminal
// status has never been served is immune to the cap (not to aging) for
// fetchGrace after it finished.
//
// finished is in finishedAt order, so aged jobs form its head and the
// oldest unprotected job is usually the head too: prune pops the head
// while it is evictable, which makes a call amortised O(1) once the
// history is full. Only while a protected job heads the slice does prune
// scan past it.
func (st *jobStore) prune(now time.Time) {
	excess := 0
	if st.maxHistory > 0 && len(st.finished) > st.maxHistory {
		excess = len(st.finished) - st.maxHistory
	}
	for len(st.finished) > 0 && st.evict(st.finished[0], now, &excess) {
		st.finished[0] = nil
		st.finished = st.finished[1:]
	}
	if excess == 0 || len(st.finished) == 0 {
		return
	}
	kept := st.finished[:0]
	for _, j := range st.finished {
		if !st.evict(j, now, &excess) {
			kept = append(kept, j)
		}
	}
	clear(st.finished[len(kept):])
	st.finished = kept
}

// evict forgets j if it has aged out, or if the history is excess jobs
// over its cap and j is not protected; an eviction counts against excess.
func (st *jobStore) evict(j *job, now time.Time, excess *int) bool {
	age := now.Sub(j.finishedAt)
	protected := !j.fetched && age < fetchGrace
	if age < jobRetention && (*excess == 0 || protected) {
		return false
	}
	if *excess > 0 {
		*excess--
	}
	delete(st.byID, j.id)
	return true
}

// replay folds the write-ahead log left by the previous daemon incarnation
// back into the store: terminal jobs are restored with their recorded
// outcome (still queryable), every non-terminal job is re-admitted and
// re-enqueued — FACADE jobs are deterministic, so a re-run is bit-identical
// to the run the crash interrupted — and the log is compacted in place.
// Caller holds s.mu.
func (s *Server) replay(path string) error {
	events, err := readJournal(path)
	if err != nil {
		return fmt.Errorf("journal replay: %w", err)
	}
	replayed, maxSeq := replayJournal(events)
	s.seq = max(s.seq, maxSeq)
	now := time.Now()
	for _, rj := range replayed {
		j := newJob(rj.id, rj.seq, rj.tenant, rj.req, now)
		if rj.state != "" { // terminal: restore the recorded outcome
			j.result = rj.result
			j.startedAt, j.finishedAt = now, now
			j.cancel(nil)
			close(j.done)
			s.jobs.add(j)
			s.jobs.finish(j)
			continue
		}
		j.recovered = true
		s.admitLocked(j) // recovered work is not re-judged against the budgets
		s.runq.push(j)
		s.replayLeft++
	}
	s.replayedTotal = s.replayLeft
	s.cReplayed.Add(int64(s.replayedTotal))
	if err := rewriteJournal(path, compactEvents(replayed)); err != nil {
		return fmt.Errorf("journal compact: %w", err)
	}
	return nil
}
