package server

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
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
	// TenantBudget is every tenant's heap budget (0 = no per-tenant
	// limit beyond the aggregate).
	TenantBudget int64

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

	// FaultSpec enables daemon-level fault injection (internal/faults);
	// "killat=N" crashes the process at the N-th journal append — the
	// deterministic SIGKILL the crash-recovery tests schedule.
	FaultSpec string
	// CrashFn overrides how an injected daemon crash dies (tests);
	// default prints a note and os.Exit(137), mimicking SIGKILL.
	CrashFn func()
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.JournalPath == "" && out.PortFile != "" {
		out.JournalPath = out.PortFile + ".journal"
	}
	if out.JournalPath == "none" {
		out.JournalPath = ""
	}
	out.Addr = cmp.Or(out.Addr, "127.0.0.1:0")
	out.HeapBudget = cmp.Or(out.HeapBudget, 1<<30)
	out.MaxConcurrent = cmp.Or(out.MaxConcurrent, 2)
	out.WarmPoolCap = cmp.Or(out.WarmPoolCap, 8)
	out.DrainTimeout = cmp.Or(out.DrainTimeout, 10*time.Second)
	return out
}

// Server is a running daemon. One mutex guards all scheduling state; the
// budget, the run queue and the job store each own their fields and gauges.
type Server struct {
	cfg     Config
	reg     *obs.Registry
	progs   *progCache
	pool    *warmPool
	journal *journal

	ln      net.Listener
	httpSrv *http.Server
	started time.Time

	mu            sync.Mutex
	budget        budget
	runq          runQueue
	jobs          jobStore
	seq           int64
	lastActivity  time.Time
	stopping      bool
	draining      bool
	replayLeft    int // recovered jobs not yet terminal (phase "replaying")
	replayedTotal int

	// retryBase and retryMax shape the capped exponential backoff between
	// automatic re-runs of transiently failed jobs: 50ms doubling to 2s.
	retryBase, retryMax time.Duration

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
	gReplaying, gDraining                            *obs.Gauge
}

// newServer builds the daemon's state; nothing listens, journals or runs.
func newServer(cfg Config) *Server {
	reg := obs.NewRegistry()
	now := time.Now()
	return &Server{
		cfg:          cfg,
		reg:          reg,
		progs:        newProgCache(),
		pool:         newWarmPool(cfg.WarmPoolCap, reg),
		started:      now,
		lastActivity: now,
		budget:       newBudget(cfg.HeapBudget, cfg.TenantBudget, reg),
		runq:         newRunQueue(reg),
		jobs:         newJobStore(maxJobHistory),
		retryBase:    50 * time.Millisecond,
		retryMax:     2 * time.Second,
		kick:         make(chan struct{}, 1),
		ready:        make(chan struct{}),
		stopped:      make(chan struct{}),
		cSubmitted:   reg.Counter(obs.CtrServerSubmitted),
		cDone:        reg.Counter(obs.CtrServerDone),
		cFailed:      reg.Counter(obs.CtrServerFailed),
		cCanceled:    reg.Counter(obs.CtrServerCanceled),
		cRejected:    reg.Counter(obs.CtrServerRejected),
		cRetried:     reg.Counter(obs.CtrServerRetried),
		cDeadline:    reg.Counter(obs.CtrServerDeadline),
		cReplayed:    reg.Counter(obs.CtrServerReplayed),
		gReplaying:   reg.Gauge(obs.GaugeServerReplaying),
		gDraining:    reg.Gauge(obs.GaugeServerDraining),
	}
}

// New starts a daemon: replay the journal, listen, write the port file,
// and begin serving. Callers stop it with Shutdown (or POST /v1/shutdown)
// and wait for full termination with Wait; SIGTERM handlers should prefer
// Drain.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := newServer(cfg)
	// fail undoes a partial start.
	fail := func(err error) (*Server, error) {
		if s.ln != nil {
			s.ln.Close()
		}
		if s.journal != nil {
			s.journal.seal()
		}
		return nil, err
	}
	// Replay and the readiness decision share one critical section: a
	// recovered job's deadline can fire the moment it is re-admitted.
	s.mu.Lock()
	var err error
	if cfg.JournalPath != "" {
		err = s.openJournal(cfg.JournalPath)
	}
	if s.replayLeft == 0 {
		close(s.ready)
	} else {
		s.gReplaying.Set(1)
	}
	s.mu.Unlock()
	if err != nil {
		return fail(err)
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return fail(err)
	}
	s.ln = ln
	s.httpSrv = &http.Server{Handler: s.handler()}
	if cfg.PortFile != "" {
		if err := writePortFile(cfg.PortFile, s.Addr()); err != nil {
			return fail(err)
		}
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

// openJournal replays the write-ahead log the previous incarnation left,
// reopens it for appending, and arms the daemon-level crash schedule on it.
// Caller holds s.mu.
func (s *Server) openJournal(path string) error {
	if err := s.replay(path); err != nil {
		return err
	}
	jl, err := createJournal(path, s.reg)
	if err != nil {
		return err
	}
	s.journal = jl
	if s.cfg.FaultSpec == "" {
		return nil
	}
	fcfg, err := faults.Parse(s.cfg.FaultSpec)
	if err != nil {
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
	return nil
}

// journalAppend writes an event when a journal is configured. Callers on
// the non-durable paths drop the error: losing a started/done record to a
// bad disk only means the job re-runs deterministically on recovery.
func (s *Server) journalAppend(ev journalEvent, durable bool) error {
	if s.journal == nil {
		return nil
	}
	return s.journal.append(ev, durable)
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

// The causes the daemon itself stops jobs with.
var (
	errCanceledByClient = errors.New("canceled by client")
	errShuttingDown     = errors.New("server shutting down")
	errKilled           = errors.New("daemon killed")
)

// Shutdown stops the daemon hard: pending and running jobs are canceled,
// the listener closes, and the port file is removed. Idempotent. Prefer
// Drain for a graceful stop that preserves queued work in the journal.
func (s *Server) Shutdown(ctx context.Context) error {
	s.stopOnce.Do(func() {
		s.mu.Lock()
		s.stopping = true
		for _, j := range s.jobs.byID {
			s.stopLocked(j, errShuttingDown)
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
	// A drain starts nothing and retries nothing, so the jobs running now
	// are all there is to wait for.
	var running []*job
	for _, j := range s.jobs.byID {
		if j.state == StateRunning {
			running = append(running, j)
		}
	}
	s.mu.Unlock()
	s.journalAppend(journalEvent{Kind: jevDrain}, false)

	timeout := time.After(s.cfg.DrainTimeout)
drain:
	for _, j := range running {
		select {
		case <-j.done:
		case <-timeout:
			break drain
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
// commit covered is exactly what the next incarnation replays. Only running
// jobs are interrupted (so Kill can return); a dead process stops nothing.
func (s *Server) Kill() {
	s.stopOnce.Do(func() {
		s.mu.Lock()
		s.stopping = true
		if s.journal != nil {
			s.journal.kill()
		}
		for _, j := range s.jobs.byID {
			if j.state == StateRunning {
				j.cancel(errKilled)
			}
		}
		s.mu.Unlock()
		s.httpSrv.Close()
		close(s.stopped)
	})
	s.wg.Wait()
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
				s.runq.depth() == 0 && !s.stopping && !s.draining &&
				s.inflight.Load() == 0
			s.mu.Unlock()
			if idle {
				go s.Shutdown(context.Background())
				return
			}
		}
	}
}

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
