package server

import (
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/facade"
	"repro/internal/faults"
	"repro/internal/ir"
	"repro/internal/obs"
)

// Config configures a daemon instance. The zero value listens on an
// ephemeral localhost port with a 1 GiB aggregate heap budget, no
// per-tenant limits, two execution slots, and no idle timeout.
type Config struct {
	// Addr is the listen address (default "127.0.0.1:0").
	Addr string
	// PortFile, when set, is written after listen (JSON: schema, pid,
	// addr) and removed on shutdown; clients discover the daemon through
	// it.
	PortFile string
	// JournalPath is the durable job journal (facade.journal/v1, an
	// append-only JSONL write-ahead log). Empty derives "<PortFile>.journal"
	// when a port file is configured; "none" disables journaling (jobs
	// then die with the process, the pre-journal behavior).
	JournalPath string

	// HeapBudget bounds the sum of heap reservations across all queued
	// and running jobs (default 1 GiB). Submissions that would exceed it
	// are rejected with 429 + Retry-After.
	HeapBudget int64
	// TenantBudget is the default per-tenant heap budget (0 = no
	// per-tenant limit beyond the aggregate).
	TenantBudget int64
	// TenantBudgets overrides TenantBudget for specific tenants.
	TenantBudgets map[string]int64

	// MaxConcurrent is the number of jobs executing at once (default 2).
	MaxConcurrent int
	// WarmPoolCap bounds the number of idle warm VMs kept (default 8).
	WarmPoolCap int
	// IdleTimeout shuts the daemon down after this long with no requests
	// and no work (0 = run until told to stop).
	IdleTimeout time.Duration
	// DrainTimeout bounds how long a Drain (SIGTERM) waits for running
	// jobs to finish before sealing the journal and stopping (default
	// 10s). Jobs still queued or running at the deadline stay non-terminal
	// in the journal and are replayed by the next incarnation.
	DrainTimeout time.Duration

	// RetryBase and RetryMax shape the capped exponential backoff between
	// automatic re-runs of transiently failed jobs (defaults 50ms / 2s).
	RetryBase time.Duration
	RetryMax  time.Duration

	// JobRetention is how long a terminal job (and its output) stays
	// queryable before being garbage-collected (default 15m, negative =
	// keep forever).
	JobRetention time.Duration
	// MaxJobHistory caps the number of retained terminal jobs regardless
	// of age, oldest evicted first (default 512, negative = unlimited).
	MaxJobHistory int
	// FetchGrace protects a terminal job whose result has never been
	// served from MaxJobHistory eviction for this long after it finished,
	// so a client long-polling Wait between poll windows cannot see a
	// completed job turn into a 404 under sustained load. It must exceed
	// the long-poll window plus client turnaround (default 90s, negative
	// = no protection). JobRetention aging evicts regardless.
	FetchGrace time.Duration
	// ProgCacheCap bounds the compiled-program cache, least recently used
	// evicted first (default 32, negative = unlimited).
	ProgCacheCap int

	// FaultSpec enables daemon-level fault injection (internal/faults);
	// "killat=N" crashes the process at the N-th journal append — the
	// deterministic SIGKILL the crash-recovery smoke schedules.
	FaultSpec string
	// CrashFn overrides how an injected daemon crash dies (tests);
	// default prints a note and os.Exit(137), mimicking SIGKILL.
	CrashFn func()
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Addr == "" {
		out.Addr = "127.0.0.1:0"
	}
	if out.JournalPath == "" && out.PortFile != "" {
		out.JournalPath = out.PortFile + ".journal"
	}
	if out.JournalPath == "none" {
		out.JournalPath = ""
	}
	if out.HeapBudget == 0 {
		out.HeapBudget = 1 << 30
	}
	if out.MaxConcurrent == 0 {
		out.MaxConcurrent = 2
	}
	if out.WarmPoolCap == 0 {
		out.WarmPoolCap = 8
	}
	if out.DrainTimeout == 0 {
		out.DrainTimeout = 10 * time.Second
	}
	if out.RetryBase == 0 {
		out.RetryBase = 50 * time.Millisecond
	}
	if out.RetryMax == 0 {
		out.RetryMax = 2 * time.Second
	}
	if out.JobRetention == 0 {
		out.JobRetention = 15 * time.Minute
	}
	if out.MaxJobHistory == 0 {
		out.MaxJobHistory = 512
	}
	if out.FetchGrace == 0 {
		out.FetchGrace = 3 * longPollWindow
	}
	if out.ProgCacheCap == 0 {
		out.ProgCacheCap = 32
	}
	return out
}

// job is one submitted run and its full lifecycle.
type job struct {
	id       string
	seq      int64
	req      SubmitRequest
	tenant   string
	reserved int64

	attempt     int // 1-based execution attempt
	maxAttempts int
	deadline    time.Time // zero = no deadline
	recovered   bool      // re-enqueued from the journal at startup

	state   string
	warmHit bool
	output  string
	errMsg  string
	errKind string
	stats   *facade.RunStats
	fetched bool // a terminal status has been served at least once

	queuedAt, startedAt, finishedAt time.Time

	cancel context.CancelCauseFunc
	done   chan struct{} // closed when the job reaches a terminal state
}

func (j *job) terminal() bool {
	return j.state == StateDone || j.state == StateFailed || j.state == StateCanceled
}

// jobQueue is a priority queue: higher Priority first, FIFO within a
// priority level.
type jobQueue []*job

func (q jobQueue) Len() int { return len(q) }
func (q jobQueue) Less(i, j int) bool {
	if q[i].req.Priority != q[j].req.Priority {
		return q[i].req.Priority > q[j].req.Priority
	}
	return q[i].seq < q[j].seq
}
func (q jobQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *jobQueue) Push(x any)   { *q = append(*q, x.(*job)) }
func (q *jobQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

// longPollWindow bounds a GET /v1/jobs/{id}?wait=1 long poll server-side;
// the thin client budgets its per-request deadline against it (plus
// longPollGrace), so the two can never race each other.
const longPollWindow = 30 * time.Second

// Server is a running daemon.
type Server struct {
	cfg     Config
	reg     *obs.Registry
	progs   *progCache
	pool    *warmPool
	journal *journal

	ln      net.Listener
	httpSrv *http.Server
	started time.Time

	mu             sync.Mutex
	jobs           map[string]*job
	finished       []*job // terminal jobs in finish order, for pruning
	queue          jobQueue
	seq            int64
	reserved       int64
	tenantReserved map[string]int64
	running        int
	lastActivity   time.Time
	stopping       bool
	draining       bool
	replayLeft     int // recovered jobs not yet terminal (phase "replaying")
	replayedTotal  int

	// inflight counts HTTP requests currently being served (every
	// endpoint, health probes included). The idle watch treats a nonzero
	// count as activity, so a daemon cannot self-terminate in the gap
	// between a load generator's ramp-up connect and its first submit.
	inflight atomic.Int64

	kick     chan struct{}
	ready    chan struct{} // closed once replay converges (or immediately)
	stopOnce sync.Once
	stopped  chan struct{}
	wg       sync.WaitGroup

	cSubmitted, cDone, cFailed, cCanceled, cRejected *obs.Counter
	cRetried, cDeadline, cReplayed                   *obs.Counter
	gRunning, gQueued, gReserved                     *obs.Gauge
	gReplaying, gDraining                            *obs.Gauge
}

// New starts a daemon: replay the journal, listen, write the port file,
// and begin serving. Callers stop it with Shutdown (or POST /v1/shutdown)
// and wait for full termination with Wait; SIGTERM handlers should prefer
// Drain.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	s := &Server{
		cfg:            cfg,
		reg:            reg,
		progs:          newProgCache(cfg.ProgCacheCap),
		pool:           newWarmPool(cfg.WarmPoolCap, reg),
		started:        time.Now(),
		jobs:           make(map[string]*job),
		tenantReserved: make(map[string]int64),
		kick:           make(chan struct{}, 1),
		ready:          make(chan struct{}),
		stopped:        make(chan struct{}),
		cSubmitted:     reg.Counter(obs.CtrServerSubmitted),
		cDone:          reg.Counter(obs.CtrServerDone),
		cFailed:        reg.Counter(obs.CtrServerFailed),
		cCanceled:      reg.Counter(obs.CtrServerCanceled),
		cRejected:      reg.Counter(obs.CtrServerRejected),
		cRetried:       reg.Counter(obs.CtrServerRetried),
		cDeadline:      reg.Counter(obs.CtrServerDeadline),
		cReplayed:      reg.Counter(obs.CtrServerReplayed),
		gRunning:       reg.Gauge(obs.GaugeServerRunning),
		gQueued:        reg.Gauge(obs.GaugeServerQueued),
		gReserved:      reg.Gauge(obs.GaugeServerReserved),
		gReplaying:     reg.Gauge(obs.GaugeServerReplaying),
		gDraining:      reg.Gauge(obs.GaugeServerDraining),
	}
	s.lastActivity = s.started

	if cfg.JournalPath != "" {
		if err := s.openJournal(cfg.JournalPath); err != nil {
			return nil, err
		}
	}

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		if s.journal != nil {
			s.journal.seal()
		}
		return nil, err
	}
	s.ln = ln

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	mux.HandleFunc("POST /v1/shutdown", s.handleShutdown)
	// Every request — healthz/readyz/status included — counts as activity
	// while in flight and stamps lastActivity on completion, so the idle
	// watch never fires under a request that is still being read or served.
	s.httpSrv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.inflight.Add(1)
		defer func() {
			s.inflight.Add(-1)
			s.mu.Lock()
			s.lastActivity = time.Now()
			s.mu.Unlock()
		}()
		mux.ServeHTTP(w, r)
	})}

	if cfg.PortFile != "" {
		if err := writePortFile(cfg.PortFile, s.Addr()); err != nil {
			ln.Close()
			if s.journal != nil {
				s.journal.seal()
			}
			return nil, err
		}
	}

	if s.replayLeft == 0 {
		close(s.ready)
	} else {
		s.gReplaying.Set(1)
	}

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.httpSrv.Serve(ln) // returns on Shutdown/Close
	}()
	s.wg.Add(1)
	go s.schedule()
	if cfg.IdleTimeout > 0 {
		s.wg.Add(1)
		go s.idleWatch()
	}
	s.kickScheduler()
	return s, nil
}

// openJournal replays the write-ahead log left by the previous daemon
// incarnation, restores terminal jobs (still queryable), re-enqueues every
// non-terminal job — FACADE jobs are deterministic, so a re-run is
// bit-identical to the run the crash interrupted — compacts the log, and
// reopens it for appending.
func (s *Server) openJournal(path string) error {
	events, err := readJournal(path)
	if err != nil {
		return fmt.Errorf("journal replay: %w", err)
	}
	replayed, maxSeq := replayJournal(events)
	if maxSeq > s.seq {
		s.seq = maxSeq
	}
	now := time.Now()
	for _, rj := range replayed {
		j := &job{
			id:          rj.id,
			seq:         rj.seq,
			req:         rj.req,
			tenant:      rj.tenant,
			attempt:     1,
			maxAttempts: maxAttemptsOf(&rj.req),
			queuedAt:    now,
			done:        make(chan struct{}),
		}
		if rj.state != "" { // terminal: restore the recorded outcome
			j.state = rj.state
			j.output = rj.output
			j.errMsg = rj.errMsg
			j.errKind = rj.errKind
			j.startedAt, j.finishedAt = now, now
			close(j.done)
			s.jobs[j.id] = j
			s.finished = append(s.finished, j)
			continue
		}
		j.state = StateQueued
		j.recovered = true
		j.reserved = int64(j.req.HeapSize)
		if j.req.DeadlineMillis > 0 {
			// The deadline budget restarts: it bounds service latency,
			// not wall-clock survival across daemon crashes.
			j.deadline = now.Add(time.Duration(j.req.DeadlineMillis) * time.Millisecond)
		}
		s.jobs[j.id] = j
		heap.Push(&s.queue, j)
		s.reserved += j.reserved
		s.tenantReserved[j.tenant] += j.reserved
		s.replayLeft++
		s.replayedTotal++
	}
	s.gReserved.Set(s.reserved)
	s.gQueued.Set(int64(len(s.queue)))
	s.cReplayed.Add(int64(s.replayedTotal))

	if err := rewriteJournal(path, compactEvents(replayed)); err != nil {
		return fmt.Errorf("journal compact: %w", err)
	}
	jl, err := createJournal(path, s.reg)
	if err != nil {
		return err
	}
	s.journal = jl
	if s.cfg.FaultSpec != "" {
		fcfg, err := faults.Parse(s.cfg.FaultSpec)
		if err != nil {
			jl.seal()
			return fmt.Errorf("daemon fault spec: %w", err)
		}
		if inj := faults.New(&fcfg); inj != nil {
			crash := s.cfg.CrashFn
			if crash == nil {
				crash = func() {
					fmt.Fprintln(os.Stderr, "repro serve: injected daemon crash (server.crash)")
					os.Exit(137)
				}
			}
			jl.onAppend = func() {
				if inj.Fire(faults.ServerCrash) {
					crash()
				}
			}
		}
	}
	// Deadline timers for recovered queued jobs.
	for _, j := range s.jobs {
		if j.state == StateQueued && !j.deadline.IsZero() {
			s.armDeadline(j)
		}
	}
	return nil
}

func maxAttemptsOf(req *SubmitRequest) int {
	if req.MaxAttempts < 1 {
		return 1
	}
	return req.MaxAttempts
}

// journalAppend writes an event when a journal is configured, swallowing
// errors on the non-durable paths: losing a started/done record to a bad
// disk only means the job re-runs deterministically on recovery.
func (s *Server) journalAppend(ev journalEvent, durable bool) error {
	if s.journal == nil {
		return nil
	}
	err := s.journal.append(ev, durable)
	if errors.Is(err, errJournalClosed) && !durable {
		return nil
	}
	return err
}

// Addr returns the daemon's listen address ("127.0.0.1:port").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Wait blocks until the daemon has fully stopped (idle timeout, shutdown
// endpoint, or Shutdown call).
func (s *Server) Wait() { <-s.stopped }

// WaitReady blocks until startup replay has converged (all recovered jobs
// terminal) and the daemon answers /v1/readyz with 200.
func (s *Server) WaitReady(ctx context.Context) error {
	select {
	case <-s.ready:
		return nil
	case <-s.stopped:
		return errors.New("server stopped before becoming ready")
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Phase reports the lifecycle phase: replaying, ready, draining, or
// stopping.
func (s *Server) Phase() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.phaseLocked()
}

func (s *Server) phaseLocked() string {
	switch {
	case s.stopping:
		return PhaseStopping
	case s.draining:
		return PhaseDraining
	case s.replayLeft > 0:
		return PhaseReplaying
	default:
		return PhaseReady
	}
}

// Shutdown stops the daemon hard: pending and running jobs are canceled,
// the listener closes, and the port file is removed. Idempotent. Prefer
// Drain for a graceful stop that preserves queued work in the journal.
func (s *Server) Shutdown(ctx context.Context) error {
	s.stopOnce.Do(func() {
		s.mu.Lock()
		s.stopping = true
		// Cancel everything still queued; the scheduler skips canceled
		// entries.
		for _, j := range s.jobs {
			if j.state == StateQueued {
				s.finishLocked(j, StateCanceled, "", nil, "server shutting down", ErrKindCanceled)
			} else if j.state == StateRunning && j.cancel != nil {
				j.cancel(fmt.Errorf("server shutting down"))
			}
		}
		s.mu.Unlock()
		s.kickScheduler()

		sctx, stop := context.WithTimeout(ctx, 5*time.Second)
		defer stop()
		s.httpSrv.Shutdown(sctx)
		// Before close(stopped): Wait returning means the file is gone.
		if s.cfg.PortFile != "" {
			os.Remove(s.cfg.PortFile)
		}
		close(s.stopped)
	})
	// Wait for the scheduler and any running jobs to drain.
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		if s.journal != nil {
			s.journal.seal()
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Drain is the graceful stop SIGTERM triggers: admission closes (503 +
// Retry-After), running jobs get up to Config.DrainTimeout to finish, the
// queue stays durably checkpointed in the journal for the next
// incarnation, and only then does the daemon stop. Jobs still running at
// the drain deadline are canceled in-process but remain non-terminal on
// disk, so a restart replays them bit-identically.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.stopping || s.draining {
		s.mu.Unlock()
		return s.Shutdown(ctx)
	}
	s.draining = true
	s.gDraining.Set(1)
	s.mu.Unlock()
	s.journalAppend(journalEvent{Kind: jevDrain}, false)

	deadline := time.Now().Add(s.cfg.DrainTimeout)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
drain:
	for time.Now().Before(deadline) {
		s.mu.Lock()
		idle := s.running == 0
		s.mu.Unlock()
		if idle {
			break
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			break drain
		case <-s.stopped:
			break drain
		}
	}
	// Seal before the hard stop: the cancellations Shutdown issues to
	// stragglers must not journal terminal states — those jobs belong to
	// the next incarnation.
	if s.journal != nil {
		s.journal.seal()
	}
	return s.Shutdown(ctx)
}

// Kill abruptly stops the daemon without flushing the journal, journaling
// terminal states, or removing the port file — the in-process stand-in
// for SIGKILL that the crash-recovery tests use. Whatever the last group
// commit covered is exactly what the next incarnation replays.
func (s *Server) Kill() {
	s.stopOnce.Do(func() {
		s.mu.Lock()
		s.stopping = true
		if s.journal != nil {
			s.journal.kill()
		}
		for _, j := range s.jobs {
			if j.state == StateRunning && j.cancel != nil {
				j.cancel(fmt.Errorf("daemon killed"))
			}
		}
		s.mu.Unlock()
		s.httpSrv.Close()
		close(s.stopped)
	})
	s.wg.Wait()
}

func (s *Server) touch() {
	s.mu.Lock()
	s.lastActivity = time.Now()
	s.pruneJobsLocked(s.lastActivity)
	s.mu.Unlock()
}

// pruneJobsLocked garbage-collects terminal jobs: anything older than
// JobRetention, plus oldest-first overflow past MaxJobHistory, so a
// long-lived daemon does not pin every completed job's output forever.
// A job whose terminal status has never been served is immune to the
// history cap for FetchGrace after finishing — under sustained load the
// cap can otherwise evict a completed job a client is still long-polling,
// turning its result into a 404. JobRetention aging evicts regardless:
// a client that has not fetched in 15 minutes is gone. Caller holds s.mu.
func (s *Server) pruneJobsLocked(now time.Time) {
	excess := 0
	if s.cfg.MaxJobHistory > 0 && len(s.finished) > s.cfg.MaxJobHistory {
		excess = len(s.finished) - s.cfg.MaxJobHistory
	}
	if excess == 0 && s.cfg.JobRetention <= 0 {
		return
	}
	kept := s.finished[:0]
	for _, j := range s.finished {
		aged := s.cfg.JobRetention > 0 && now.Sub(j.finishedAt) >= s.cfg.JobRetention
		protected := !j.fetched && s.cfg.FetchGrace > 0 && now.Sub(j.finishedAt) < s.cfg.FetchGrace
		if aged || (excess > 0 && !protected) {
			if excess > 0 {
				excess--
			}
			delete(s.jobs, j.id)
			continue
		}
		kept = append(kept, j)
	}
	tail := s.finished[len(kept):]
	for i := range tail {
		tail[i] = nil
	}
	s.finished = kept
}

func (s *Server) idleWatch() {
	defer s.wg.Done()
	tick := time.NewTicker(s.cfg.IdleTimeout / 4)
	defer tick.Stop()
	for {
		select {
		case <-s.stopped:
			return
		case <-tick.C:
			s.mu.Lock()
			idle := time.Since(s.lastActivity) >= s.cfg.IdleTimeout &&
				s.running == 0 && len(s.queue) == 0 && !s.stopping && !s.draining &&
				s.inflight.Load() == 0
			s.mu.Unlock()
			if idle {
				go s.Shutdown(context.Background())
				return
			}
		}
	}
}

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
			if s.stopping || s.draining || s.running >= s.cfg.MaxConcurrent || len(s.queue) == 0 {
				s.mu.Unlock()
				break
			}
			j := heap.Pop(&s.queue).(*job)
			if j.terminal() { // canceled while queued
				s.mu.Unlock()
				continue
			}
			if !j.deadline.IsZero() && !time.Now().Before(j.deadline) {
				de := &DeadlineError{JobID: j.id, Limit: time.Duration(j.req.DeadlineMillis) * time.Millisecond}
				s.finishLocked(j, StateFailed, "", nil, de.Error(), ErrKindDeadline)
				s.mu.Unlock()
				continue
			}
			// Create the job's cancelable context here, under s.mu, so a
			// concurrent Shutdown/cancel never observes StateRunning with
			// a nil j.cancel (which would let the job run to completion).
			base := context.Background()
			stopTimer := func() {}
			if !j.deadline.IsZero() {
				base, stopTimer = context.WithDeadlineCause(base, j.deadline,
					&DeadlineError{JobID: j.id, Limit: time.Duration(j.req.DeadlineMillis) * time.Millisecond})
			}
			ctx, cancel := context.WithCancelCause(base)
			j.cancel = cancel
			j.state = StateRunning
			j.startedAt = time.Now()
			s.running++
			s.gRunning.Set(int64(s.running))
			s.gQueued.Set(int64(len(s.queue)))
			s.mu.Unlock()
			s.wg.Add(1)
			go s.runJob(j, ctx, cancel, stopTimer)
		}
	}
}

// runJob executes one admitted job end to end: resolve the compiled
// program (shared cache), take a warm VM when one matches, run through
// facade.RunContext, and return the VM to the pool. Transient failures
// are re-queued with backoff up to the job's attempt budget.
func (s *Server) runJob(j *job, ctx context.Context, cancel context.CancelCauseFunc, stopTimer func()) {
	defer s.wg.Done()
	defer s.kickScheduler()
	defer stopTimer()
	defer cancel(nil)

	s.mu.Lock()
	attempt := j.attempt
	s.mu.Unlock()
	s.journalAppend(journalEvent{
		Kind: jevStarted, Seq: j.seq, JobID: j.id, Tenant: j.tenant, Attempt: attempt,
	}, false)

	key := programKey(&j.req)
	prog, err := s.progs.get(key, func() (*ir.Program, error) { return compileRequest(&j.req) })
	if err != nil {
		s.finish(j, StateFailed, "", nil, "compile: "+err.Error(), ErrKindDeterministic)
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

	res, runErr := facade.RunContext(ctx, prog, opts...)
	var output string
	var stats *facade.RunStats
	if res != nil {
		output = res.Output()
		if res.VM != nil {
			st := res.Stats()
			stats = &st
		}
		res.Close()
		// Return the VM for reuse; put re-verifies it and drops it (a
		// pool rebuild) when a crashed run left threads or pages behind.
		s.pool.put(vk, res.VM)
	}
	if runErr == nil {
		s.finish(j, StateDone, output, stats, "", "")
		return
	}
	switch kind := classifyFailure(runErr); kind {
	case ErrKindCanceled:
		s.finish(j, StateCanceled, output, stats, runErr.Error(), kind)
	case ErrKindDeadline:
		de := &DeadlineError{JobID: j.id, Limit: time.Duration(j.req.DeadlineMillis) * time.Millisecond}
		s.finish(j, StateFailed, output, stats, de.Error(), kind)
	case ErrKindTransient:
		if attempt < j.maxAttempts && s.retryLater(j) {
			return
		}
		s.finish(j, StateFailed, output, stats, runErr.Error(), kind)
	default:
		s.finish(j, StateFailed, output, stats, runErr.Error(), kind)
	}
}

// classifyFailure sorts a run error into the retry taxonomy
// (docs/ROBUSTNESS.md): deadline and cancellation are surfaced as-is;
// injected crash faults and warm-VM reset failures are transient
// (environment trouble — re-running can succeed); everything else —
// compile/verify/lint errors, OutOfMemoryError, page quotas — is
// deterministic and fails fast, because a deterministic program re-run
// against the same inputs can only fail the same way.
func classifyFailure(err error) string {
	var de *DeadlineError
	if errors.As(err, &de) {
		return ErrKindDeadline
	}
	var ce *facade.CanceledError
	if errors.As(err, &ce) {
		if errors.Is(err, context.DeadlineExceeded) {
			return ErrKindDeadline
		}
		return ErrKindCanceled
	}
	msg := err.Error()
	if strings.Contains(msg, "injected fault") || strings.Contains(msg, "reset with") ||
		strings.Contains(msg, "reset:") {
		return ErrKindTransient
	}
	return ErrKindDeterministic
}

// retryLater re-queues a transiently failed job after a capped
// exponential backoff with deterministic jitter. Returns false when the
// daemon is stopping/draining or the job's deadline leaves no headroom —
// the caller then fails the job instead.
func (s *Server) retryLater(j *job) bool {
	s.mu.Lock()
	if j.terminal() || s.stopping || s.draining {
		s.mu.Unlock()
		return false
	}
	if !j.deadline.IsZero() && !time.Now().Before(j.deadline) {
		s.mu.Unlock()
		return false
	}
	j.attempt++
	j.state = StateQueued
	j.cancel = nil
	s.running--
	s.gRunning.Set(int64(s.running))
	s.cRetried.Add(1)
	delay := retryDelay(s.cfg.RetryBase, s.cfg.RetryMax, j.seq, j.attempt)
	s.mu.Unlock()
	time.AfterFunc(delay, func() {
		s.mu.Lock()
		if j.terminal() || j.state != StateQueued || s.stopping {
			s.mu.Unlock()
			return
		}
		heap.Push(&s.queue, j)
		s.gQueued.Set(int64(len(s.queue)))
		s.mu.Unlock()
		s.kickScheduler()
	})
	return true
}

// retryDelay is capped exponential backoff (base doubling per attempt,
// clamped to max) plus deterministic jitter in [0, delay/2] drawn from a
// splitmix64 hash of (job seq, attempt) — reproducible run to run, but
// decorrelated across a batch of jobs failing together.
func retryDelay(base, max time.Duration, seq int64, attempt int) time.Duration {
	d := base << uint(attempt-2)
	if d <= 0 || d > max {
		d = max
	}
	z := uint64(seq)<<8 ^ uint64(attempt)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if half := uint64(d / 2); half > 0 {
		d += time.Duration(z % (half + 1))
	}
	return d
}

// armDeadline fails a job that is still queued when its deadline passes —
// without it, a job stuck behind long-running work would hold its
// reservation and its waiters past the promised bound. Running jobs are
// handled by the context deadline at the interpreter's safepoints.
func (s *Server) armDeadline(j *job) {
	wait := time.Until(j.deadline)
	if wait < 0 {
		wait = 0
	}
	time.AfterFunc(wait, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if j.terminal() || j.state != StateQueued {
			return
		}
		de := &DeadlineError{JobID: j.id, Limit: time.Duration(j.req.DeadlineMillis) * time.Millisecond}
		s.finishLocked(j, StateFailed, "", nil, de.Error(), ErrKindDeadline)
	})
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
		opts = append(opts, facade.WithTiering(dir, req.TierHighPages, req.TierLowPages))
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
	if err := req.Validate(); err != nil {
		return "", nil, err
	}
	if req.HeapSize == 0 {
		req.HeapSize = 64 << 20
	}
	prog, err := compileRequest(&req)
	if err != nil {
		return "", nil, fmt.Errorf("compile: %w", err)
	}
	res, err := facade.Run(prog, runOptions(&req)...)
	if res == nil {
		return "", nil, err
	}
	out := res.Output()
	var stats *facade.RunStats
	if res.VM != nil {
		st := res.Stats()
		stats = &st
	}
	res.Close()
	return out, stats, err
}

func (s *Server) finish(j *job, state, output string, stats *facade.RunStats, errMsg, errKind string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finishLocked(j, state, output, stats, errMsg, errKind)
}

// finishLocked moves a job to a terminal state, releases its budget
// reservation, journals the outcome, and wakes any status long-pollers.
// Caller holds s.mu.
func (s *Server) finishLocked(j *job, state, output string, stats *facade.RunStats, errMsg, errKind string) {
	if j.terminal() {
		return
	}
	wasRunning := j.state == StateRunning
	j.state = state
	j.output = output
	j.stats = stats
	j.errMsg = errMsg
	j.errKind = errKind
	j.finishedAt = time.Now()
	if j.startedAt.IsZero() {
		j.startedAt = j.finishedAt
	}
	s.reserved -= j.reserved
	s.tenantReserved[j.tenant] -= j.reserved
	s.gReserved.Set(s.reserved)
	if wasRunning {
		s.running--
		s.gRunning.Set(int64(s.running))
	}
	switch state {
	case StateDone:
		s.cDone.Add(1)
	case StateFailed:
		s.cFailed.Add(1)
	case StateCanceled:
		s.cCanceled.Add(1)
	}
	if errKind == ErrKindDeadline {
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
	s.finished = append(s.finished, j)
	s.pruneJobsLocked(j.finishedAt)
	s.journalAppend(journalEvent{
		Kind: jevDone, Seq: j.seq, JobID: j.id, Tenant: j.tenant, Attempt: j.attempt,
		State: state, ErrKind: errKind, Output: output, Error: errMsg,
	}, false)
	close(j.done)
}

// --- HTTP handlers -------------------------------------------------------

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.touch()
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad request body: "+err.Error(), 0)
		return
	}
	if err := req.Validate(); err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	if req.HeapSize == 0 {
		req.HeapSize = 64 << 20
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	need := int64(req.HeapSize)

	s.mu.Lock()
	if ph := s.phaseLocked(); ph != PhaseReady {
		hint := s.retryHintLocked()
		s.mu.Unlock()
		s.writeError(w, http.StatusServiceUnavailable, "server "+ph+", not accepting jobs", hint)
		return
	}
	if s.reserved+need > s.cfg.HeapBudget {
		hint := s.retryHintLocked()
		s.mu.Unlock()
		s.cRejected.Add(1)
		s.writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("aggregate heap budget exhausted: %d reserved + %d requested > %d",
				s.reserved, need, s.cfg.HeapBudget), hint)
		return
	}
	if tb := s.tenantBudget(req.Tenant); tb > 0 && s.tenantReserved[req.Tenant]+need > tb {
		hint := s.retryHintLocked()
		s.mu.Unlock()
		s.cRejected.Add(1)
		s.writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("tenant %q heap budget exhausted: %d reserved + %d requested > %d",
				req.Tenant, s.tenantReserved[req.Tenant], need, tb), hint)
		return
	}
	s.seq++
	j := &job{
		id:          fmt.Sprintf("job-%06d", s.seq),
		seq:         s.seq,
		req:         req,
		tenant:      req.Tenant,
		reserved:    need,
		attempt:     1,
		maxAttempts: maxAttemptsOf(&req),
		state:       StateQueued,
		queuedAt:    time.Now(),
		done:        make(chan struct{}),
	}
	if req.DeadlineMillis > 0 {
		j.deadline = j.queuedAt.Add(time.Duration(req.DeadlineMillis) * time.Millisecond)
	}
	s.jobs[j.id] = j
	s.reserved += need
	s.tenantReserved[req.Tenant] += need
	s.gReserved.Set(s.reserved)
	s.cSubmitted.Add(1)
	s.mu.Unlock()

	// Write-ahead: the job becomes durable (and only then runnable)
	// before the 202 goes out, so an acknowledged job survives SIGKILL.
	// Group commit batches concurrent submissions into one fsync.
	ev := journalEvent{Kind: jevSubmitted, Seq: j.seq, JobID: j.id, Tenant: j.tenant, Req: &j.req}
	if err := s.journalAppend(ev, true); err != nil {
		s.mu.Lock()
		s.finishLocked(j, StateCanceled, "", nil, "journal write failed: "+err.Error(), ErrKindTransient)
		hint := s.retryHintLocked()
		s.mu.Unlock()
		s.writeError(w, http.StatusServiceUnavailable, "journal write failed: "+err.Error(), hint)
		return
	}

	s.mu.Lock()
	if !j.terminal() { // canceled (shutdown) while the journal write was in flight
		heap.Push(&s.queue, j)
		s.gQueued.Set(int64(len(s.queue)))
	}
	s.mu.Unlock()
	if !j.deadline.IsZero() {
		s.armDeadline(j)
	}
	s.kickScheduler()

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	EncodeJob(w, SubmitResponse{Schema: Schema, JobID: j.id, State: StateQueued})
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
	slots := s.cfg.MaxConcurrent
	if slots < 1 {
		slots = 1
	}
	depth := int64(len(s.queue)) + int64(s.running)
	hint := int64(retryHintBase) + depth*retryHintBase/int64(slots)
	if s.cfg.HeapBudget > 0 {
		// Reservation pressure: at a full budget the hint doubles.
		hint += hint * s.reserved / s.cfg.HeapBudget
	}
	if hint > retryHintMax {
		hint = retryHintMax
	}
	return hint
}

// retryHint is retryHintLocked for callers not holding s.mu.
func (s *Server) retryHint() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retryHintLocked()
}

func (s *Server) tenantBudget(tenant string) int64 {
	if b, ok := s.cfg.TenantBudgets[tenant]; ok {
		return b
	}
	return s.cfg.TenantBudget
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.touch()
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
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
		s.touch()
	}
	w.Header().Set("Content-Type", "application/json")
	EncodeJob(w, s.jobStatus(j))
}

func (s *Server) jobStatus(j *job) JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.terminal() {
		// The result has been served: the job is now fair game for
		// MaxJobHistory eviction (see pruneJobsLocked).
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
		HeapReserved:   j.reserved,
	}
	switch j.state {
	case StateQueued:
		st.QueuedNanos = time.Since(j.queuedAt).Nanoseconds()
		for i, q := range s.queue {
			if q == j {
				st.QueuePosition = i + 1
				break
			}
		}
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
	s.touch()
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	if ok {
		switch j.state {
		case StateQueued:
			s.finishLocked(j, StateCanceled, "", nil, "canceled by client", ErrKindCanceled)
		case StateRunning:
			if j.cancel != nil {
				j.cancel(fmt.Errorf("canceled by client"))
			}
		}
	}
	s.mu.Unlock()
	if !ok {
		s.writeError(w, http.StatusNotFound, "no such job", 0)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	EncodeJob(w, s.jobStatus(j))
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.touch()
	w.Header().Set("Content-Type", "application/json")
	EncodeJob(w, s.Status())
}

// handleHealthz is liveness: the process is up and serving HTTP. It says
// nothing about whether work is being accepted — that is readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	EncodeJob(w, ReadyStatus{Schema: Schema, Ready: true, Phase: s.Phase()})
}

// handleReadyz is readiness: 200 exactly when the daemon accepts new
// jobs — false (503 + Retry-After) while replaying the journal after a
// crash and while draining toward shutdown.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ph := s.Phase()
	w.Header().Set("Content-Type", "application/json")
	if ph != PhaseReady {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	EncodeJob(w, ReadyStatus{Schema: Schema, Ready: ph == PhaseReady, Phase: ph})
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
		HeapBudget:   s.cfg.HeapBudget,
		HeapReserved: s.reserved,
		JobsRunning:  s.running,
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
		Tenants:      make(map[string]TenantStatus),
	}
	for _, j := range s.jobs {
		if j.state == StateQueued {
			st.JobsQueued++
		}
	}
	for tenant, res := range s.tenantReserved {
		ts := TenantStatus{HeapBudget: s.tenantBudget(tenant), HeapReserved: res}
		for _, j := range s.jobs {
			if j.tenant != tenant {
				continue
			}
			switch j.state {
			case StateQueued:
				ts.JobsQueued++
			case StateRunning:
				ts.JobsRunning++
			}
		}
		st.Tenants[tenant] = ts
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
	w.Header().Set("Content-Type", "application/json")
	if retryMillis > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt((retryMillis+999)/1000, 10))
	}
	w.WriteHeader(code)
	EncodeJob(w, ErrorResponse{Schema: Schema, Error: msg, RetryAfterMillis: retryMillis})
}

// --- port file -----------------------------------------------------------

// portFileInfo is the discovery record the daemon writes next to its
// socket: enough for a client to find and health-check it.
type portFileInfo struct {
	Schema string `json:"schema"`
	PID    int    `json:"pid"`
	Addr   string `json:"addr"`
}

func writePortFile(path, addr string) error {
	data, err := json.Marshal(portFileInfo{Schema: Schema, PID: os.Getpid(), Addr: addr})
	if err != nil {
		return err
	}
	// Write-then-rename so a concurrently starting client never reads a
	// torn file.
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
