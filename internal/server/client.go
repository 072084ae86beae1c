package server

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"repro/internal/faults"
)

// DefaultPortFile returns the per-user default discovery path:
// $TMPDIR/repro-serve-<uid>.json. Daemon and client must agree on it, so
// both default here.
func DefaultPortFile() string {
	return filepath.Join(os.TempDir(), fmt.Sprintf("repro-serve-%d.json", os.Getuid()))
}

// Client is a thin facade.job/v1 client for one daemon.
type Client struct {
	BaseURL string
	// HTTP is the underlying client (default http.DefaultClient). Leave
	// its Timeout zero: per-request deadlines come from Timeout below, so
	// long polls can budget their own window instead of racing a global
	// transport timeout.
	HTTP *http.Client
	// Timeout bounds each plain request (default 60s). Wait's long polls
	// ignore it and budget longPollWindow plus grace per poll instead.
	Timeout time.Duration
}

// RejectedError is returned by Submit when the daemon refused admission:
// 429 (heap budget exhausted) or 503 (draining toward shutdown, replaying
// its journal). RetryAfter tells the caller how long to back off before
// resubmitting; SubmitWithRetry does that automatically.
type RejectedError struct {
	Message    string
	RetryAfter time.Duration
}

func (e *RejectedError) Error() string {
	return fmt.Sprintf("rejected: %s (retry after %v)", e.Message, e.RetryAfter)
}

// Discover connects to the daemon a port file points at, verifying it is
// alive and speaks our schema. Returns an error when the file is missing,
// stale, or the daemon does not answer.
func Discover(portFile string) (*Client, error) {
	data, err := os.ReadFile(portFile)
	if err != nil {
		return nil, err
	}
	var info portFileInfo
	if err := json.Unmarshal(data, &info); err != nil {
		return nil, fmt.Errorf("port file %s: %w", portFile, err)
	}
	if info.Schema != Schema {
		return nil, fmt.Errorf("port file %s: daemon speaks %q, client wants %q", portFile, info.Schema, Schema)
	}
	c := &Client{BaseURL: "http://" + info.Addr}
	if _, err := c.Status(); err != nil {
		return nil, fmt.Errorf("daemon at %s not responding: %w", info.Addr, err)
	}
	return c, nil
}

// StartOptions configures daemon auto-start.
type StartOptions struct {
	// Args are extra arguments for the `serve` subcommand (budgets,
	// concurrency).
	Args []string
	// IdleTimeout is forwarded as -idle so an auto-started daemon reaps
	// itself (default 5m).
	IdleTimeout time.Duration
	// Timeout bounds how long to wait for the daemon to come up
	// (default 10s).
	Timeout time.Duration
	// Launch overrides how the winning client starts the daemon (tests
	// inject an in-process server here instead of exec'ing a binary). It
	// must arrange for portFile to eventually exist and answer.
	Launch func(portFile string) error
}

// EnsureServer discovers a running daemon or transparently starts one:
// the current executable is re-invoked as `serve -portfile <pf> -idle
// <d>` and detached, then polled until its port file answers. This is
// how `repro submit` works without an explicit daemon-management step.
//
// Auto-start is serialized through an exclusive lock file next to the
// port file, so concurrent clients racing past a failed Discover spawn
// one daemon, not one each; losers of the lock race poll for the
// winner's daemon instead.
func EnsureServer(portFile string, opts StartOptions) (*Client, error) {
	if c, err := Discover(portFile); err == nil {
		return c, nil
	}
	timeout := cmp.Or(opts.Timeout, 10*time.Second)
	deadline := time.Now().Add(timeout)

	lockFile := portFile + ".lock"
	for {
		lf, err := os.OpenFile(lockFile, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			fmt.Fprintf(lf, "%d", os.Getpid())
			lf.Close()
			break // we own the start
		}
		// Another client holds the lock and is starting the daemon.
		if c, derr := Discover(portFile); derr == nil {
			return c, nil
		}
		if fi, serr := os.Stat(lockFile); serr == nil {
			if time.Since(fi.ModTime()) > timeout {
				// The lock holder crashed before starting anything;
				// steal the stale lock and retry acquisition.
				os.Remove(lockFile)
				continue
			}
		} else {
			continue // lock released between OpenFile and Stat; retry
		}
		if !time.Now().Before(deadline) {
			return nil, fmt.Errorf("daemon auto-start: another client held %s but no daemon came up within %v", lockFile, timeout)
		}
		time.Sleep(25 * time.Millisecond)
	}
	defer os.Remove(lockFile)

	// Re-check under the lock: a daemon may have come up while we raced
	// for it, and its port file must not be clobbered.
	if c, err := Discover(portFile); err == nil {
		return c, nil
	}
	// Remove a stale port file so we do not rediscover a dead daemon.
	os.Remove(portFile)
	launch := opts.Launch
	if launch == nil {
		launch = func(pf string) error { return launchDaemon(pf, opts) }
	}
	if err := launch(portFile); err != nil {
		return nil, err
	}

	for time.Now().Before(deadline) {
		if c, err := Discover(portFile); err == nil {
			return c, nil
		}
		time.Sleep(25 * time.Millisecond)
	}
	return nil, fmt.Errorf("auto-started daemon did not come up within %v", timeout)
}

// launchDaemon re-invokes the current executable as a detached `serve`
// process — the default StartOptions.Launch.
func launchDaemon(portFile string, opts StartOptions) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("auto-start: %w", err)
	}
	idle := cmp.Or(opts.IdleTimeout, 5*time.Minute)
	args := append([]string{"serve", "-portfile", portFile, "-idle", idle.String()}, opts.Args...)
	cmd := exec.Command(exe, args...)
	cmd.Stdout = io.Discard
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("auto-start %s serve: %w", exe, err)
	}
	// Detach: the daemon outlives this client process.
	go cmd.Wait()
	return nil
}

// Submit sends a job; the request's schema field is stamped automatically.
func (c *Client) Submit(req SubmitRequest) (SubmitResponse, error) {
	req.Schema = Schema
	var resp SubmitResponse
	err := c.do("POST", "/v1/jobs", &req, &resp)
	return resp, err
}

// SubmitOptions shapes SubmitWithRetry's client-side backoff.
type SubmitOptions struct {
	// MaxRetries is how many rejections to absorb before giving up
	// (0 = fail on the first RejectedError, like plain Submit).
	MaxRetries int
	// BaseBackoff and MaxBackoff shape the capped exponential backoff
	// (defaults 100ms / 5s). The daemon's Retry-After hint, when longer,
	// wins over the computed delay.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed makes the jitter deterministic for a given (seed, attempt);
	// callers that want reproducible schedules set it, everyone else can
	// leave it zero.
	Seed int64
	// Sleep replaces time.Sleep (tests). Nil means time.Sleep.
	Sleep func(time.Duration)
	// OnReject observes every rejection absorbed before a retry (load
	// generators count 429s with it). Nil means no observation.
	OnReject func(*RejectedError)
}

// SubmitWithRetry is Submit plus client-side backpressure handling: on a
// RejectedError (429 budget exhaustion, 503 drain/replay) it backs off
// and resubmits, up to opts.MaxRetries times. When the daemon supplies a
// millisecond-precision retry_after_ms hint it is authoritative — the
// daemon scales it with queue depth and reservation pressure, so a burst
// of rejected clients spreads out instead of re-stampeding on a coarse
// whole-second Retry-After — and only jitter is added on top. Without a
// hint the client falls back to capped exponential backoff. Any other
// error, including a protocol or transport error, fails immediately.
func (c *Client) SubmitWithRetry(req SubmitRequest, opts SubmitOptions) (SubmitResponse, error) {
	base := cmp.Or(opts.BaseBackoff, 100*time.Millisecond)
	maxB := cmp.Or(opts.MaxBackoff, 5*time.Second)
	sleep := opts.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	for attempt := 0; ; attempt++ {
		resp, err := c.Submit(req)
		if err == nil {
			return resp, nil
		}
		rej, ok := err.(*RejectedError)
		if !ok || attempt >= opts.MaxRetries {
			return resp, err
		}
		if opts.OnReject != nil {
			opts.OnReject(rej)
		}
		delay := rej.RetryAfter
		if delay <= 0 {
			// No hint from the daemon: capped exponential backoff.
			delay = backoff(base, maxB, attempt)
		}
		sleep(jittered(delay, opts.Seed, attempt+1))
	}
}

// backoff is base doubled the given number of times, clamped to max — the
// schedule shared by the client's resubmissions and the daemon's re-runs.
func backoff(base, max time.Duration, doublings int) time.Duration {
	d := base << uint(doublings)
	if d <= 0 || d > max {
		d = max
	}
	return d
}

// jittered adds to d a deterministic jitter in [0, d/2] drawn from a
// splitmix64 hash of (seed, n): reproducible run to run, but decorrelated
// across a burst of clients rejected, or jobs failing, together.
func jittered(d time.Duration, seed int64, n int) time.Duration {
	if half := uint64(d / 2); half > 0 {
		d += time.Duration(faults.Mix64(uint64(seed)<<8^uint64(n)) % (half + 1))
	}
	return d
}

// Job fetches one job's status.
func (c *Client) Job(id string) (JobStatus, error) {
	var st JobStatus
	err := c.do("GET", "/v1/jobs/"+id, nil, &st)
	return st, err
}

// longPollGrace is how much the client's per-poll deadline exceeds the
// server's longPollWindow: enough headroom for scheduling and transport
// that a healthy poll always returns before the client gives up, however
// long the job runs.
const longPollGrace = 15 * time.Second

// Wait blocks until the job reaches a terminal state, long-polling the
// daemon. Each poll carries its own deadline of longPollWindow +
// longPollGrace — deliberately decoupled from Client.Timeout, so waiting
// on a job slower than any fixed request timeout works: the daemon ends
// each poll at longPollWindow and the client immediately re-polls.
func (c *Client) Wait(id string) (JobStatus, error) {
	for {
		var st JobStatus
		if err := c.doTimeout("GET", "/v1/jobs/"+id+"?wait=1", nil, &st, longPollWindow+longPollGrace); err != nil {
			return st, err
		}
		if st.State == StateDone || st.State == StateFailed || st.State == StateCanceled {
			return st, nil
		}
	}
}

// Cancel requests cancellation of a queued or running job and returns its
// (possibly still-running) status.
func (c *Client) Cancel(id string) (JobStatus, error) {
	var st JobStatus
	err := c.do("POST", "/v1/jobs/"+id+"/cancel", nil, &st)
	return st, err
}

// Status fetches the daemon-wide status.
func (c *Client) Status() (ServerStatus, error) {
	var st ServerStatus
	err := c.do("GET", "/v1/status", nil, &st)
	return st, err
}

// Ready asks GET /v1/readyz. It returns the daemon's lifecycle phase and
// whether it currently accepts new jobs (false while replaying its
// journal after a crash and while draining). Not-ready is a status, not
// an error: the daemon's 503 decodes into ReadyStatus like the 200 does.
func (c *Client) Ready() (ReadyStatus, error) {
	var rs ReadyStatus
	err := c.doTimeout("GET", "/v1/readyz", nil, &rs, c.timeout(), http.StatusServiceUnavailable)
	return rs, err
}

// Shutdown asks the daemon to stop immediately, canceling queued and
// running jobs.
func (c *Client) Shutdown() error {
	return c.do("POST", "/v1/shutdown", nil, nil)
}

// Drain asks the daemon to stop gracefully: finish running jobs, keep
// queued ones checkpointed in the journal for the next incarnation.
func (c *Client) Drain() error {
	return c.do("POST", "/v1/shutdown?drain=1", nil, nil)
}

func (c *Client) timeout() time.Duration { return cmp.Or(c.Timeout, 60*time.Second) }

func (c *Client) do(method, path string, body, out any) error {
	return c.doTimeout(method, path, body, out, c.timeout())
}

// doTimeout performs one request within d. A status of 400 or above is an
// error unless listed in bodyToo, whose replies decode into out like a 2xx.
func (c *Client) doTimeout(method, path string, body, out any, d time.Duration, bodyToo ...int) error {
	var rd io.Reader
	if body != nil {
		buf := &bytes.Buffer{}
		if err := json.NewEncoder(buf).Encode(body); err != nil {
			return err
		}
		rd = buf
	}
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 && !slices.Contains(bodyToo, resp.StatusCode) {
		var er ErrorResponse
		data, _ := io.ReadAll(resp.Body)
		if json.Unmarshal(data, &er) == nil && er.Error != "" {
			if resp.StatusCode == http.StatusTooManyRequests ||
				(resp.StatusCode == http.StatusServiceUnavailable && er.RetryAfterMillis > 0) {
				retry := time.Duration(er.RetryAfterMillis) * time.Millisecond
				if retry == 0 {
					if secs, _ := strconv.Atoi(resp.Header.Get("Retry-After")); secs > 0 {
						retry = time.Duration(secs) * time.Second
					}
				}
				return &RejectedError{Message: er.Error, RetryAfter: retry}
			}
			return fmt.Errorf("%s %s: %s", method, path, er.Error)
		}
		return fmt.Errorf("%s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
