package server

import (
	"context"
	"errors"
	"math/rand/v2"
	"slices"
	"strconv"
	"testing"
	"time"
)

// finishedJob puts a terminal job into st as if it had finished at t.
func finishedJob(st *jobStore, id string, t time.Time, fetched bool) *job {
	j := &job{id: id, result: result{state: StateDone}, finishedAt: t, fetched: fetched}
	st.add(j)
	st.finish(j)
	return j
}

func storeHas(st *jobStore, id string) bool {
	_, ok := st.get(id)
	return ok
}

// TestPruneAging: past jobRetention a terminal job goes whether or not its
// result was ever fetched; a moment before, both stay.
func TestPruneAging(t *testing.T) {
	st := newJobStore(10)
	t0 := time.Now()
	finishedJob(&st, "fetched", t0, true)
	finishedJob(&st, "unfetched", t0, false)
	finishedJob(&st, "young", t0.Add(time.Minute), true)

	st.prune(t0.Add(jobRetention - time.Second))
	if !storeHas(&st, "fetched") || !storeHas(&st, "unfetched") || len(st.finished) != 3 {
		t.Fatalf("pruned before jobRetention: %d left", len(st.finished))
	}
	st.prune(t0.Add(jobRetention))
	if storeHas(&st, "fetched") || storeHas(&st, "unfetched") {
		t.Fatal("aged jobs survived jobRetention")
	}
	if !storeHas(&st, "young") || len(st.finished) != 1 {
		t.Fatalf("young job lost with the aged ones: %d left", len(st.finished))
	}
}

// TestPruneCapHonoursFetchGrace: the history cap takes fetched jobs oldest
// first and passes over an unfetched one — until fetchGrace has run out.
func TestPruneCapHonoursFetchGrace(t *testing.T) {
	st := newJobStore(2)
	t0 := time.Now()
	finishedJob(&st, "a-unfetched", t0, false)
	finishedJob(&st, "b-fetched", t0, true)
	finishedJob(&st, "c-fetched", t0, true)
	finishedJob(&st, "d-unfetched", t0, false)

	st.prune(t0.Add(time.Second))
	if storeHas(&st, "b-fetched") || storeHas(&st, "c-fetched") {
		t.Fatal("fetched jobs survived the cap")
	}
	if !storeHas(&st, "a-unfetched") || !storeHas(&st, "d-unfetched") {
		t.Fatal("the cap evicted an unfetched job inside its grace")
	}

	// Out of grace, the oldest unfetched job is the next overflow victim.
	late := t0.Add(fetchGrace)
	finishedJob(&st, "e-fetched", late, true)
	st.prune(late)
	if storeHas(&st, "a-unfetched") {
		t.Fatal("unfetched job outlived fetchGrace under the cap")
	}
	if len(st.finished) != 2 || len(st.byID) != 2 {
		t.Fatalf("store holds %d finished / %d by id, want 2 / 2", len(st.finished), len(st.byID))
	}
}

// pruneByScan is the prune that walked and compacted the whole history on
// every call, kept as the oracle for the head-popping one.
func pruneByScan(st *jobStore, now time.Time) {
	excess := 0
	if len(st.finished) > st.maxHistory {
		excess = len(st.finished) - st.maxHistory
	}
	if excess == 0 && (len(st.finished) == 0 || now.Sub(st.finished[0].finishedAt) < jobRetention) {
		return
	}
	kept := st.finished[:0]
	for _, j := range st.finished {
		aged := now.Sub(j.finishedAt) >= jobRetention
		protected := !j.fetched && now.Sub(j.finishedAt) < fetchGrace
		if aged || (excess > 0 && !protected) {
			if excess > 0 {
				excess--
			}
			delete(st.byID, j.id)
			continue
		}
		kept = append(kept, j)
	}
	clear(st.finished[len(kept):])
	st.finished = kept
}

func finishedIDs(st *jobStore) []string {
	ids := make([]string, len(st.finished))
	for i, j := range st.finished {
		ids[i] = j.id
	}
	return ids
}

// TestPruneMatchesFullScan drives two stores through one random history of
// finishes, fetches and prunes — small caps, clocks that step past
// fetchGrace and jobRetention — and prunes one with prune, the other with
// the full scan: they must keep the same jobs in the same order.
func TestPruneMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(30, 1))
	for trial := 0; trial < 300; trial++ {
		maxHistory := 1 + rng.IntN(5)
		got, want := newJobStore(maxHistory), newJobStore(maxHistory)
		now := time.Now()
		for step := 0; step < 200; step++ {
			if rng.IntN(10) == 0 {
				now = now.Add(time.Duration(rng.Int64N(int64(2 * jobRetention))))
			} else {
				now = now.Add(time.Duration(rng.Int64N(int64(fetchGrace))))
			}
			switch rng.IntN(3) {
			case 0:
				id, fetched := strconv.Itoa(step), rng.IntN(3) == 0
				finishedJob(&got, id, now, fetched)
				finishedJob(&want, id, now, fetched)
			case 1:
				if n := len(got.finished); n > 0 {
					j := got.finished[rng.IntN(n)]
					j.fetched = true
					want.byID[j.id].fetched = true
				}
			default:
				got.prune(now)
				pruneByScan(&want, now)
				if g, w := finishedIDs(&got), finishedIDs(&want); !slices.Equal(g, w) {
					t.Fatalf("trial %d step %d (cap %d): prune kept %v, the full scan %v", trial, step, maxHistory, g, w)
				}
				if len(got.byID) != len(got.finished) || len(want.byID) != len(want.finished) {
					t.Fatalf("trial %d step %d: byID out of step with finished", trial, step)
				}
			}
		}
	}
}

// TestNewJobContext: the job's context exists from birth, carries the typed
// deadline cause, and the one cancel func releases it.
func TestNewJobContext(t *testing.T) {
	req := SubmitRequest{HeapSize: 1 << 20, DeadlineMillis: 250}
	// Born an hour ago: the deadline has already passed, no waiting needed.
	j := newJob("job-000007", 7, "t", req, time.Now().Add(-time.Hour))
	<-j.ctx.Done()
	var de *DeadlineError
	if !errors.As(context.Cause(j.ctx), &de) || de.JobID != "job-000007" || de.Limit != 250*time.Millisecond {
		t.Fatalf("deadline cause = %v, want the job's *DeadlineError", context.Cause(j.ctx))
	}
	if j.state != StateQueued || j.attempt != 1 || j.reserved() != 1<<20 {
		t.Fatalf("new job: state %q attempt %d reserved %d", j.state, j.attempt, j.reserved())
	}

	req.DeadlineMillis = 0
	j = newJob("job-000008", 8, "t", req, time.Now())
	if j.ctx.Err() != nil {
		t.Fatal("a job without a deadline was born canceled")
	}
	j.cancel(errCanceledByClient)
	if context.Cause(j.ctx) != errCanceledByClient {
		t.Fatalf("cause = %v", context.Cause(j.ctx))
	}
}
