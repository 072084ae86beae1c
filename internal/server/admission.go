package server

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/obs"
)

// budget owns the heap reservations admission judges new work against and
// the gauge that mirrors them. Invariant: reserved equals the sum of
// tenants, which equals the sum of job.reserved() over non-terminal jobs.
type budget struct {
	limit        int64            // aggregate bound
	tenantLimit  int64            // default per-tenant bound (0 = none)
	tenantLimits map[string]int64 // per-tenant overrides
	reserved     int64
	tenants      map[string]int64 // reservations by tenant; entries stay at 0 once seen
	gauge        *obs.Gauge
}

func newBudget(limit, tenantLimit int64, tenantLimits map[string]int64, reg *obs.Registry) budget {
	return budget{
		limit: limit, tenantLimit: tenantLimit, tenantLimits: tenantLimits,
		tenants: make(map[string]int64),
		gauge:   reg.Gauge(obs.GaugeServerReserved),
	}
}

func (b *budget) limitOf(tenant string) int64 {
	if l, ok := b.tenantLimits[tenant]; ok {
		return l
	}
	return b.tenantLimit
}

// room reports why n more bytes for tenant do not fit, or nil if they do.
func (b *budget) room(tenant string, n int64) error {
	if b.reserved+n > b.limit {
		return fmt.Errorf("aggregate heap budget exhausted: %d reserved + %d requested > %d",
			b.reserved, n, b.limit)
	}
	if tl := b.limitOf(tenant); tl > 0 && b.tenants[tenant]+n > tl {
		return fmt.Errorf("tenant %q heap budget exhausted: %d reserved + %d requested > %d",
			tenant, b.tenants[tenant], n, tl)
	}
	return nil
}

func (b *budget) reserve(tenant string, n int64) {
	b.reserved += n
	b.tenants[tenant] += n
	b.gauge.Set(b.reserved)
}

func (b *budget) release(tenant string, n int64) { b.reserve(tenant, -n) }

// pressure stretches a back-off hint by how full the aggregate budget is:
// at a full budget the hint doubles.
func (b *budget) pressure(hint int64) int64 {
	if b.limit > 0 {
		hint += hint * b.reserved / b.limit
	}
	return hint
}

// normalize validates a request and fills in the defaults, so the daemon
// and OneShot run the same request the same way.
func (r *SubmitRequest) normalize() error {
	if err := r.Validate(); err != nil {
		return err
	}
	if r.HeapSize == 0 {
		r.HeapSize = 64 << 20
	}
	if r.Tenant == "" {
		r.Tenant = "default"
	}
	return nil
}

// refusal is a submission the daemon turned away.
type refusal struct {
	code        int // HTTP status
	msg         string
	retryMillis int64
}

// submit admits a normalized request: judge it against the lifecycle phase
// and the budgets, make it durable, then make it runnable.
func (s *Server) submit(req SubmitRequest) (*job, *refusal) {
	s.mu.Lock()
	if ph := s.phaseLocked(); ph != PhaseReady {
		defer s.mu.Unlock()
		return nil, &refusal{http.StatusServiceUnavailable, "server " + ph + ", not accepting jobs", s.retryHintLocked()}
	}
	if err := s.budget.room(req.Tenant, int64(req.HeapSize)); err != nil {
		defer s.mu.Unlock()
		s.cRejected.Add(1)
		return nil, &refusal{http.StatusTooManyRequests, err.Error(), s.retryHintLocked()}
	}
	s.seq++
	j := newJob(fmt.Sprintf("job-%06d", s.seq), s.seq, req.Tenant, req, time.Now())
	s.admitLocked(j)
	s.cSubmitted.Add(1)
	s.mu.Unlock()

	// Write-ahead: the job becomes durable (and only then runnable)
	// before the 202 goes out, so an acknowledged job survives SIGKILL.
	// Group commit batches concurrent submissions into one fsync.
	ev := journalEvent{Kind: jevSubmitted, Seq: j.seq, JobID: j.id, Tenant: j.tenant, Req: &j.req}
	err := s.journalAppend(ev, true)

	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		msg := "journal write failed: " + err.Error()
		s.finishLocked(j, result{state: StateCanceled, errMsg: msg, errKind: ErrKindTransient})
		return nil, &refusal{http.StatusServiceUnavailable, msg, s.retryHintLocked()}
	}
	if !j.terminal() { // stopped (shutdown, deadline) while the journal write was in flight
		s.runq.push(j)
	}
	s.kickScheduler()
	return j, nil
}

// admitLocked makes the daemon answerable for j: its reservation is taken,
// the store knows it, and — the one deadline mechanism — when its context
// ends by itself the job is stopped with the context's cause, whatever
// state it is in. Caller holds s.mu.
func (s *Server) admitLocked(j *job) {
	s.budget.reserve(j.tenant, j.reserved())
	s.jobs.add(j)
	if j.req.DeadlineMillis > 0 {
		context.AfterFunc(j.ctx, func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			s.stopLocked(j, context.Cause(j.ctx))
		})
	}
}

// Backpressure hint bounds (milliseconds). The hint itself is computed
// per rejection by retryHintLocked, never a flat constant: a constant
// makes every rejected client in a burst back off identically and
// re-stampede together.
const (
	retryHintBase = 50
	retryHintMax  = 10_000
)

// retryHintLocked estimates how long a rejected client should back off,
// in milliseconds, from the state that caused the rejection: the hint
// grows with queue depth per execution slot (a proxy for time until a
// slot frees) and stretches as heap reservations approach the aggregate
// budget. Caller holds s.mu.
func (s *Server) retryHintLocked() int64 {
	slots := int64(max(s.cfg.MaxConcurrent, 1))
	hint := int64(retryHintBase) + int64(s.runq.depth())*retryHintBase/slots
	return min(s.budget.pressure(hint), retryHintMax)
}
