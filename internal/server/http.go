package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// longPollWindow bounds a GET /v1/jobs/{id}?wait=1 long poll server-side;
// the thin client budgets its per-request deadline against it (plus
// longPollGrace), so the two can never race each other.
const longPollWindow = 30 * time.Second

// handler routes the facade.job/v1 endpoints. Every request —
// healthz/readyz/status included — counts as activity while in flight, and
// on completion stamps lastActivity and gives retention its turn, so the
// idle watch never fires under a request that is still being read or
// served.
func (s *Server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	mux.HandleFunc("POST /v1/shutdown", s.handleShutdown)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.inflight.Add(1)
		defer func() {
			s.inflight.Add(-1)
			s.mu.Lock()
			s.lastActivity = time.Now()
			s.jobs.prune(s.lastActivity)
			s.mu.Unlock()
		}()
		mux.ServeHTTP(w, r)
	})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeSubmit(r.Body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	j, refused := s.submit(req)
	if refused != nil {
		s.writeError(w, refused.code, refused.msg, refused.retryMillis)
		return
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{Schema: Schema, JobID: j.id, State: StateQueued})
}

// decodeSubmit reads a submit body into a normalized request; an error
// is the client's (400).
func decodeSubmit(body io.Reader) (SubmitRequest, error) {
	var req SubmitRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		return req, fmt.Errorf("bad request body: %w", err)
	}
	return req, req.normalize()
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs.get(r.PathValue("id"))
	s.mu.Unlock()
	if !ok {
		s.writeError(w, http.StatusNotFound, "no such job", 0)
		return
	}
	if r.URL.Query().Get("wait") != "" {
		// Long-poll: block until the job is terminal (bounded, so a
		// stuck client retries rather than pinning a connection).
		select {
		case <-j.done:
		case <-time.After(longPollWindow):
		case <-s.stopped:
		}
	}
	writeJSON(w, http.StatusOK, s.jobStatus(j))
}

func (s *Server) jobStatus(j *job) JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.terminal() {
		// The result has been served: the job is now fair game for the
		// history cap (jobStore.prune).
		j.fetched = true
	}
	st := JobStatus{
		Schema:         Schema,
		JobID:          j.id,
		Tenant:         j.tenant,
		State:          j.state,
		WarmHit:        j.warmHit,
		Output:         j.output,
		Error:          j.errMsg,
		ErrorKind:      j.errKind,
		Stats:          j.stats,
		Attempt:        j.attempt,
		DeadlineMillis: j.req.DeadlineMillis,
		HeapReserved:   j.reserved(),
	}
	switch j.state {
	case StateQueued:
		st.QueuedNanos = time.Since(j.queuedAt).Nanoseconds()
		st.QueuePosition = s.runq.position(j)
	case StateRunning:
		st.QueuedNanos = j.startedAt.Sub(j.queuedAt).Nanoseconds()
		st.RunningNanos = time.Since(j.startedAt).Nanoseconds()
	default:
		st.QueuedNanos = j.startedAt.Sub(j.queuedAt).Nanoseconds()
		st.RunningNanos = j.finishedAt.Sub(j.startedAt).Nanoseconds()
		st.HeapReserved = 0
	}
	return st
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs.get(r.PathValue("id"))
	if ok {
		s.stopLocked(j, errCanceledByClient)
	}
	s.mu.Unlock()
	if !ok {
		s.writeError(w, http.StatusNotFound, "no such job", 0)
		return
	}
	writeJSON(w, http.StatusOK, s.jobStatus(j))
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Status())
}

// handleHealthz is liveness: the process is up and serving HTTP. It says
// nothing about whether work is being accepted — that is readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ReadyStatus{Schema: Schema, Ready: true, Phase: s.Phase()})
}

// handleReadyz is readiness: 200 exactly when the daemon accepts new
// jobs — false (503 + Retry-After) while replaying the journal after a
// crash and while draining toward shutdown.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ph, code := s.Phase(), http.StatusOK
	if ph != PhaseReady {
		w.Header().Set("Retry-After", "1")
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, ReadyStatus{Schema: Schema, Ready: ph == PhaseReady, Phase: ph})
}

// Status snapshots the daemon-wide state (also served at GET /v1/status).
func (s *Server) Status() ServerStatus {
	snap := s.reg.Snapshot()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := ServerStatus{
		Schema:       Schema,
		PID:          os.Getpid(),
		Started:      s.started.UTC().Format(time.RFC3339),
		Phase:        s.phaseLocked(),
		HeapBudget:   s.budget.limit,
		HeapReserved: s.budget.reserved,
		JobsRunning:  s.runq.running,
		JobsDone:     int(snap.Counters[obs.CtrServerDone]),
		JobsFailed:   int(snap.Counters[obs.CtrServerFailed]),
		JobsCanceled: int(snap.Counters[obs.CtrServerCanceled]),
		JobsRejected: int(snap.Counters[obs.CtrServerRejected]),
		JobsReplayed: s.replayedTotal,
		JobsRetried:  int(snap.Counters[obs.CtrServerRetried]),
		WarmPoolSize: s.pool.len(),
		WarmHits:     snap.Counters[obs.CtrServerWarmHits],
		WarmMisses:   snap.Counters[obs.CtrServerWarmMisses],
		PoolRebuilds: snap.Counters[obs.CtrServerPoolDrops],
		Tenants:      make(map[string]TenantStatus, len(s.budget.tenants)),
	}
	for tenant, res := range s.budget.tenants {
		st.Tenants[tenant] = TenantStatus{HeapBudget: s.budget.tenantLimit, HeapReserved: res}
	}
	// Every non-terminal job holds a reservation, so its tenant is in the
	// map; terminal jobs are skipped before the lookup.
	for _, j := range s.jobs.byID {
		if j.state != StateQueued && j.state != StateRunning {
			continue
		}
		ts := st.Tenants[j.tenant]
		if j.state == StateQueued {
			st.JobsQueued++
			ts.JobsQueued++
		} else {
			ts.JobsRunning++
		}
		st.Tenants[j.tenant] = ts
	}
	return st
}

func (s *Server) handleShutdown(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	EncodeJob(w, map[string]string{"schema": Schema, "state": "stopping"})
	if r.URL.Query().Get("drain") != "" {
		go s.Drain(context.Background())
		return
	}
	go s.Shutdown(context.Background())
}

func (s *Server) writeError(w http.ResponseWriter, code int, msg string, retryMillis int64) {
	if retryMillis > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt((retryMillis+999)/1000, 10))
	}
	writeJSON(w, code, ErrorResponse{Schema: Schema, Error: msg, RetryAfterMillis: retryMillis})
}

// responseBufs recycles the buffers writeJSON encodes into.
var responseBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON encodes v before it commits to a status, so a value that
// cannot be encoded is answered with a 500 and an ErrorResponse rather
// than code and an empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	buf := responseBufs.Get().(*bytes.Buffer)
	defer responseBufs.Put(buf)
	buf.Reset()
	if err := EncodeJob(buf, v); err != nil {
		code = http.StatusInternalServerError
		buf.Reset()
		EncodeJob(buf, ErrorResponse{Schema: Schema, Error: "encoding the response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(buf.Bytes())
}
