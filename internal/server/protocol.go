// Package server implements the repro serve daemon: a multi-tenant
// runtime-as-a-service layer over facade.RunContext. The daemon keeps a
// pool of warm VMs (heap arena, dispatch tables, facade metadata, and the
// recycled page pool survive across jobs), admits concurrent job
// submissions under per-tenant heap budgets and off-heap page quotas, and
// speaks the versioned facade.job/v1 HTTP/JSON protocol documented in
// docs/SERVER.md.
//
// The thin client in this package (Client, EnsureServer) discovers a
// running daemon through its port file and auto-starts one when none is
// listening, so `repro submit` works without a separate daemon-management
// step — the clangd/gopls model of a transparently managed long-lived
// server behind a short-lived CLI.
package server

import (
	"fmt"
	"io"
	"time"

	"repro/facade"
	"repro/internal/faults"
	"repro/internal/obs"
)

// Schema versions the job protocol. Every request and response carries
// it; the daemon rejects requests whose schema it does not understand, so
// a stale client never silently runs against an incompatible server.
const Schema = "facade.job/v1"

// Job states, as reported in JobStatus.State.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Failure kinds, as reported in JobStatus.ErrorKind for failed/canceled
// jobs. They drive the daemon's retry policy (docs/ROBUSTNESS.md):
// transient failures are re-run automatically up to MaxAttempts with
// capped exponential backoff; deterministic ones fail fast — re-running a
// deterministic program against the same inputs can only fail the same
// way.
const (
	// ErrKindTransient: injected crash faults, warm-pool reset failures —
	// environment trouble, not a property of the program.
	ErrKindTransient = "transient"
	// ErrKindDeterministic: compile/verify/lint errors, OutOfMemoryError,
	// page-quota exhaustion — retrying cannot change the outcome.
	ErrKindDeterministic = "deterministic"
	// ErrKindDeadline: the job exceeded its deadline_ms (typed as
	// *DeadlineError on the client, never retried).
	ErrKindDeadline = "deadline"
	// ErrKindCanceled: canceled by the client or by daemon shutdown.
	ErrKindCanceled = "canceled"
)

// Daemon lifecycle phases, as reported by GET /v1/readyz and
// ServerStatus.Phase. The daemon is ready exactly when it is in
// PhaseReady; while replaying the journal or draining it answers 503 so
// load balancers and auto-start clients hold new work back.
const (
	PhaseReplaying = "replaying"
	PhaseReady     = "ready"
	PhaseDraining  = "draining"
	PhaseStopping  = "stopping"
)

// DeadlineError reports that a job exceeded its deadline_ms budget. The
// daemon enforces the deadline through the interpreter's safepoint
// cancellation, so a runaway job is stopped at the next call or loop
// back-edge; JobStatus.Err surfaces the same typed error client-side.
type DeadlineError struct {
	JobID string
	Limit time.Duration
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("job %s exceeded its deadline of %v", e.JobID, e.Limit)
}

// SubmitRequest asks the daemon to compile and run an FJ program.
type SubmitRequest struct {
	Schema string `json:"schema"`
	// Tenant names the submitting tenant for budget accounting. Empty
	// means the "default" tenant.
	Tenant string `json:"tenant,omitempty"`
	// Priority orders the admission queue: higher runs sooner. Ties run
	// in submission order.
	Priority int `json:"priority,omitempty"`

	// Sources maps file names to FJ source text.
	Sources map[string]string `json:"sources"`
	// Transform applies the FACADE transform before running (program P').
	Transform bool `json:"transform,omitempty"`
	// DataClasses names the data classes for the transform. When empty,
	// the daemon falls back to "// facadec: data=..." directives in the
	// sources.
	DataClasses []string `json:"data_classes,omitempty"`

	// Entry is the entry function key (default "Main.main").
	Entry string `json:"entry,omitempty"`
	// HeapSize is the managed heap budget in bytes (default 64 MiB). It
	// is also the amount reserved against the tenant and aggregate
	// budgets while the job is queued or running.
	HeapSize int `json:"heap_size,omitempty"`
	// PageQuota caps the job's live off-heap pages (0 = unlimited).
	PageQuota int64 `json:"page_quota,omitempty"`
	// TierDir enables the off-heap disk tier for transformed jobs: cold
	// pages spill to a file under this directory once more than
	// TierHighPages are resident in DRAM, evicting down to half of them.
	// Empty TierDir with TierHighPages > 0 spills to the daemon's temp
	// directory. With a PageQuota the job spills before the quota fails.
	TierDir string `json:"tier_dir,omitempty"`
	// TierHighPages is the DRAM high watermark in pages (0 = no tier).
	TierHighPages int `json:"tier_high_pages,omitempty"`
	// RandSeed seeds Sys.rand; nil means the default seed 1 (the pointer
	// distinguishes "unset" from an explicit zero seed).
	RandSeed *int64 `json:"rand_seed,omitempty"`
	// Faults is a deterministic fault-injection spec
	// ("alloc=0.001,page=0.001,seed=7"); empty disables injection.
	Faults string `json:"faults,omitempty"`

	// DeadlineMillis bounds the job's end-to-end time (queued + every
	// attempt). A job past its deadline fails with a typed DeadlineError;
	// 0 means no deadline. Recovery replay restarts the budget: the
	// deadline bounds service latency, not wall-clock survival across
	// daemon crashes.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
	// MaxAttempts caps automatic re-runs after transient failures
	// (injected crash faults, warm-pool reset failures). 0 or 1 means no
	// retry; deterministic failures never retry regardless. Capped at 8.
	MaxAttempts int `json:"max_attempts,omitempty"`
}

// SubmitResponse acknowledges an admitted job.
type SubmitResponse struct {
	Schema string `json:"schema"`
	JobID  string `json:"job_id"`
	State  string `json:"state"`
}

// JobStatus reports one job's lifecycle, output, and measurements.
type JobStatus struct {
	Schema string `json:"schema"`
	JobID  string `json:"job_id"`
	Tenant string `json:"tenant"`
	State  string `json:"state"`

	// WarmHit reports whether the job ran on a reused warm VM instead of
	// a freshly built one.
	WarmHit bool `json:"warm_hit"`

	// Output is the program's Sys.print output (terminal states only).
	Output string `json:"output,omitempty"`
	// Error describes the failure for failed/canceled jobs; ErrorKind
	// classifies it (transient, deterministic, deadline, canceled).
	Error     string `json:"error,omitempty"`
	ErrorKind string `json:"error_kind,omitempty"`
	// Stats is a completed run's numbers: facade.RunStats's heap, offheap
	// and vm views, counters and gauges. Its histograms, events and
	// class_allocs stay empty (see collect).
	Stats *facade.RunStats `json:"stats,omitempty"`

	// Attempt is the execution attempt this status describes (1-based;
	// >1 means the daemon re-ran the job after transient failures).
	Attempt int `json:"attempt,omitempty"`
	// DeadlineMillis echoes the request's deadline budget.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`

	QueuedNanos   int64 `json:"queued_ns,omitempty"`      // time spent queued
	RunningNanos  int64 `json:"running_ns,omitempty"`     // time spent executing
	HeapReserved  int64 `json:"heap_reserved"`            // bytes held against budgets
	QueuePosition int   `json:"queue_position,omitempty"` // 1-based, queued state only
}

// Err maps a terminal status onto a typed error: nil for done, a
// *DeadlineError for deadline failures, and a descriptive error
// otherwise. Non-terminal statuses report nil — ask again.
func (st *JobStatus) Err() error {
	switch st.State {
	case StateDone, StateQueued, StateRunning, "":
		return nil
	}
	if st.ErrorKind == ErrKindDeadline {
		return &DeadlineError{JobID: st.JobID, Limit: time.Duration(st.DeadlineMillis) * time.Millisecond}
	}
	return fmt.Errorf("job %s %s: %s", st.JobID, st.State, st.Error)
}

// TenantStatus reports one tenant's budget accounting.
type TenantStatus struct {
	HeapBudget   int64 `json:"heap_budget"`
	HeapReserved int64 `json:"heap_reserved"`
	JobsQueued   int   `json:"jobs_queued"`
	JobsRunning  int   `json:"jobs_running"`
}

// ServerStatus is the daemon-wide view returned by GET /v1/status.
type ServerStatus struct {
	Schema  string `json:"schema"`
	PID     int    `json:"pid"`
	Started string `json:"started"` // RFC 3339
	// Phase is the lifecycle phase (replaying, ready, draining,
	// stopping); GET /v1/readyz answers 200 only in "ready".
	Phase string `json:"phase,omitempty"`

	HeapBudget   int64 `json:"heap_budget"`
	HeapReserved int64 `json:"heap_reserved"`

	JobsQueued   int `json:"jobs_queued"`
	JobsRunning  int `json:"jobs_running"`
	JobsDone     int `json:"jobs_done"`
	JobsFailed   int `json:"jobs_failed"`
	JobsCanceled int `json:"jobs_canceled"`
	JobsRejected int `json:"jobs_rejected"`
	// JobsReplayed counts non-terminal jobs this incarnation re-enqueued
	// from the journal at startup; JobsRetried counts automatic re-runs
	// after transient failures.
	JobsReplayed int `json:"jobs_replayed,omitempty"`
	JobsRetried  int `json:"jobs_retried,omitempty"`

	WarmPoolSize int   `json:"warm_pool_size"`
	WarmHits     int64 `json:"warm_hits"`
	WarmMisses   int64 `json:"warm_misses"`
	PoolRebuilds int64 `json:"pool_rebuilds"`

	Tenants map[string]TenantStatus `json:"tenants,omitempty"`
}

// ErrorResponse is the body of every non-2xx daemon reply.
type ErrorResponse struct {
	Schema string `json:"schema"`
	Error  string `json:"error"`
	// RetryAfterMillis is set on 429 (budget exhausted) responses and
	// mirrors the Retry-After header: the client should back off at
	// least this long before resubmitting.
	RetryAfterMillis int64 `json:"retry_after_ms,omitempty"`
}

// Validate checks a submit request for protocol-level problems before any
// compilation work happens.
func (r *SubmitRequest) Validate() error {
	if r.Schema != Schema {
		return fmt.Errorf("unsupported schema %q (want %q)", r.Schema, Schema)
	}
	if len(r.Sources) == 0 {
		return fmt.Errorf("no sources")
	}
	if r.HeapSize < 0 {
		return fmt.Errorf("negative heap_size")
	}
	if r.PageQuota < 0 {
		return fmt.Errorf("negative page_quota")
	}
	if r.TierHighPages < 0 {
		return fmt.Errorf("negative tier watermark")
	}
	if r.DeadlineMillis < 0 {
		return fmt.Errorf("negative deadline_ms")
	}
	if r.DeadlineMillis > int64(time.Duration(1<<63-1)/time.Millisecond) {
		return fmt.Errorf("deadline_ms %d overflows a duration", r.DeadlineMillis)
	}
	if r.MaxAttempts < 0 || r.MaxAttempts > maxAttemptsCap {
		return fmt.Errorf("max_attempts %d out of range [0,%d]", r.MaxAttempts, maxAttemptsCap)
	}
	// A spec that does not parse would fail every attempt the same way;
	// refuse it before the job is journaled or compiled.
	if _, err := faults.Parse(r.Faults); err != nil {
		return err
	}
	return nil
}

// maxAttemptsCap bounds automatic re-runs: past a handful of attempts a
// "transient" failure is not transient.
const maxAttemptsCap = 8

// ReadyStatus is the body of GET /v1/readyz (and, with Ready always
// true, GET /v1/healthz).
type ReadyStatus struct {
	Schema string `json:"schema"`
	Ready  bool   `json:"ready"`
	Phase  string `json:"phase"`
}

// EncodeJob writes any facade.job/v1 message as deterministic indented
// JSON (sorted keys, stable float formatting), so protocol fixtures can be
// byte-pinned in golden tests.
func EncodeJob(w io.Writer, v any) error {
	return obs.EncodeDeterministic(w, v)
}
