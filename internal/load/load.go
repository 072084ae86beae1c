// Package load is the sustained-throughput instrument for the repro
// daemon: a deterministic, seed-driven workload generator that drives a
// live facade.job/v1 server with many concurrent simulated clients across
// mixed scenarios and tenants, open- or closed-loop, and reports jobs/s,
// latency percentiles, queue depth over time, backpressure (429/retry)
// counts, GC pause share, and OME rate.
//
// Determinism contract: the job plan — which scenario, tenant, Sys.rand
// seed, fault schedule, and page quota job k gets — is a pure function of
// (Config.Seed, k), and every scenario's output is a pure function of its
// seed. Two runs with the same seed therefore produce bit-identical
// per-job outputs (Report.ResultsDigest) no matter how the daemon
// interleaves them; only the timing sections of the report differ. That
// is what lets TestRunDeterministicAcrossRuns assert correctness under load.
package load

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/server"
)

// Config shapes one load run.
type Config struct {
	// Seed drives the whole job plan; same seed, same plan, same outputs.
	Seed int64
	// Jobs is the total number of jobs to push through the daemon.
	Jobs int
	// Clients is the number of concurrent simulated clients: in closed
	// loop each client runs submit→wait→submit; in open loop it caps the
	// number of in-flight jobs (default 16).
	Clients int
	// Rate switches to open loop: arrivals are scheduled at this many
	// jobs per second regardless of completions (0 = closed loop).
	Rate float64
	// Tenants spreads jobs across this many tenants, "tenant-0" ..
	// "tenant-N" (default 1), exercising per-tenant budget accounting.
	Tenants int
	// Mix weights the scenario selection by name (nil = every built-in
	// scenario at weight 1). Unknown names are an error.
	Mix map[string]int
	// FaultEvery gives every Nth job a deterministic injected-fault
	// schedule plus a 3-attempt retry budget (0 = no faults).
	FaultEvery int
	// QuotaEvery gives every Nth job a 1-page off-heap quota, forcing a
	// deterministic quota failure that feeds the OME-rate metric (0 =
	// never).
	QuotaEvery int
	// MaxRetries bounds client-side resubmits per job when the daemon
	// answers 429/503 (default 16).
	MaxRetries int
	// Progress receives one line per 100 completed jobs when non-nil.
	Progress io.Writer

	sampleEvery time.Duration // queue-depth sampling interval: 100ms outside tests
}

func (c *Config) withDefaults() (Config, error) {
	out := *c
	if out.Jobs <= 0 {
		out.Jobs = 100
	}
	if out.Clients <= 0 {
		out.Clients = 16
	}
	if out.Tenants <= 0 {
		out.Tenants = 1
	}
	if out.MaxRetries == 0 {
		out.MaxRetries = 16
	}
	if out.sampleEvery <= 0 {
		out.sampleEvery = 100 * time.Millisecond
	}
	if out.Mix == nil {
		out.Mix = map[string]int{}
		for _, s := range Scenarios() {
			out.Mix[s.Name] = 1
		}
	}
	for name, w := range out.Mix {
		if _, ok := ScenarioByName(name); !ok {
			return out, fmt.Errorf("load: unknown scenario %q in mix", name)
		}
		if w <= 0 {
			return out, fmt.Errorf("load: non-positive weight %d for scenario %q", w, name)
		}
	}
	return out, nil
}

// JobPlan is the deterministic part of one job: everything decided before
// the job touches the daemon.
type JobPlan struct {
	Index    int    `json:"index"`
	Scenario string `json:"scenario"`
	Tenant   string `json:"tenant"`
	Seed     int64  `json:"seed"`
	Faults   string `json:"faults,omitempty"`
	Quota    int64  `json:"quota,omitempty"`
}

// JobResult is one job's outcome. State and OutputSHA are deterministic
// for a given plan; the latency and retry fields are measurements.
type JobResult struct {
	JobPlan
	State     string `json:"state"`
	OutputSHA string `json:"output_sha"`
	ErrorKind string `json:"error_kind,omitempty"`
	OME       bool   `json:"ome,omitempty"`

	LatencyNS int64 `json:"latency_ns"` // first submit attempt → terminal status
	Rejected  int   `json:"rejected"`   // 429/503 rejections absorbed
	WarmHit   bool  `json:"warm_hit"`
	Attempts  int   `json:"attempts"` // server-side execution attempts

	gcNS  int64 // GC pause time inside the job's VM
	runNS int64 // wall time the job spent executing
}

// Sample is one queue-depth observation.
type Sample struct {
	OffsetMS int64 `json:"t_ms"`
	Queued   int   `json:"queued"`
	Running  int   `json:"running"`
}

// splitmix64 is the repo's standard deterministic hash for decorrelated
// per-index values (same construction as the daemon's retry jitter).
func splitmix64(seed int64, k int64) uint64 {
	return faults.Mix64(uint64(seed) + uint64(k)*0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15)
}

// Plan computes job k's deterministic assignment under cfg. Exported so
// tests (and tooling) can verify the plan is a pure function of the seed.
func Plan(cfg Config, k int) JobPlan {
	cfg, err := cfg.withDefaults()
	if err != nil {
		panic(err) // mix validated by Run before Plan is used
	}
	return plan(cfg, k)
}

func plan(cfg Config, k int) JobPlan {
	names := make([]string, 0, len(cfg.Mix))
	for n := range cfg.Mix {
		names = append(names, n)
	}
	sort.Strings(names)
	total := 0
	for _, n := range names {
		total += cfg.Mix[n]
	}
	h := splitmix64(cfg.Seed, int64(k)*4+1)
	pick := int(h % uint64(total))
	scenario := names[len(names)-1]
	for _, n := range names {
		if pick < cfg.Mix[n] {
			scenario = n
			break
		}
		pick -= cfg.Mix[n]
	}
	p := JobPlan{
		Index:    k,
		Scenario: scenario,
		Tenant:   fmt.Sprintf("tenant-%d", splitmix64(cfg.Seed, int64(k)*4+2)%uint64(cfg.Tenants)),
		Seed:     int64(splitmix64(cfg.Seed, int64(k)*4+3) % 1_000_000),
	}
	if cfg.QuotaEvery > 0 && (k+1)%cfg.QuotaEvery == 0 {
		p.Quota = 1
	} else if cfg.FaultEvery > 0 && (k+1)%cfg.FaultEvery == 0 {
		p.Faults = fmt.Sprintf("alloc=0.0005,page=0.0005,seed=%d",
			splitmix64(cfg.Seed, int64(k)*4+4)%1_000_000)
	}
	return p
}

func (p JobPlan) request() server.SubmitRequest {
	sc, _ := ScenarioByName(p.Scenario)
	seed := p.Seed
	req := server.SubmitRequest{
		Tenant:    p.Tenant,
		Sources:   sc.Sources,
		Transform: sc.Transform,
		HeapSize:  sc.HeapSize,
		RandSeed:  &seed,
		PageQuota: p.Quota,
		Faults:    p.Faults,
	}
	if p.Faults != "" {
		req.MaxAttempts = 3
	}
	return req
}

// Run drives the daemon behind c with cfg's workload and collects the
// report. Jobs whose daemon conversation fails at the transport or
// protocol layer abort the run — under a healthy daemon every job ends
// in a terminal state, even a rejected or faulted one.
func Run(c *server.Client, cfg Config) (*Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}

	results := make([]JobResult, cfg.Jobs)
	var rejected, clientRetries atomic.Int64
	var completed atomic.Int64
	var firstErr atomic.Pointer[error]
	fail := func(err error) {
		e := err
		firstErr.CompareAndSwap(nil, &e)
	}

	runOne := func(k int) {
		p := plan(cfg, k)
		req := p.request()
		start := time.Now()
		var rej int
		resp, err := c.SubmitWithRetry(req, server.SubmitOptions{
			MaxRetries: cfg.MaxRetries,
			Seed:       cfg.Seed ^ int64(k),
			OnReject: func(*server.RejectedError) {
				rej++
				rejected.Add(1)
				clientRetries.Add(1)
			},
		})
		if err != nil {
			fail(fmt.Errorf("load: job %d (%s) submit: %w", k, p.Scenario, err))
			return
		}
		st, err := c.Wait(resp.JobID)
		if err != nil {
			fail(fmt.Errorf("load: job %d (%s) wait: %w", k, p.Scenario, err))
			return
		}
		sum := sha256.Sum256([]byte(st.Output))
		r := JobResult{
			JobPlan:   p,
			State:     st.State,
			OutputSHA: hex.EncodeToString(sum[:]),
			ErrorKind: st.ErrorKind,
			OME: st.State == server.StateFailed &&
				(strings.Contains(st.Error, "OutOfMemoryError") || strings.Contains(st.Error, "quota")),
			LatencyNS: time.Since(start).Nanoseconds(),
			Rejected:  rej,
			WarmHit:   st.WarmHit,
			Attempts:  st.Attempt,
		}
		if st.Stats != nil {
			r.gcNS = int64(st.Stats.Heap.GCTime)
		}
		r.runNS = st.RunningNanos
		results[k] = r
		if n := completed.Add(1); cfg.Progress != nil && n%100 == 0 {
			fmt.Fprintf(cfg.Progress, "load: %d/%d jobs done\n", n, cfg.Jobs)
		}
	}

	// Queue-depth sampler: polls GET /v1/status until the run completes.
	samples := make([]Sample, 0, 256)
	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	wallStart := time.Now()
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(cfg.sampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-stopSampler:
				return
			case <-tick.C:
				st, err := c.Status()
				if err != nil {
					continue
				}
				if len(samples) < 4096 {
					samples = append(samples, Sample{
						OffsetMS: time.Since(wallStart).Milliseconds(),
						Queued:   st.JobsQueued,
						Running:  st.JobsRunning,
					})
				}
			}
		}
	}()

	var wg sync.WaitGroup
	if cfg.Rate > 0 {
		// Open loop: arrivals on a fixed schedule, decoupled from
		// completions; Clients caps in-flight work (a saturated daemon
		// stalls the arrival, which the report shows as rising latency).
		slots := make(chan struct{}, cfg.Clients)
		for k := 0; k < cfg.Jobs; k++ {
			target := wallStart.Add(time.Duration(float64(k) / cfg.Rate * float64(time.Second)))
			if d := time.Until(target); d > 0 {
				time.Sleep(d)
			}
			slots <- struct{}{}
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				defer func() { <-slots }()
				runOne(k)
			}(k)
		}
	} else {
		// Closed loop: each client owns the indices congruent to its id
		// and runs them back to back.
		for w := 0; w < cfg.Clients; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := w; k < cfg.Jobs; k += cfg.Clients {
					if firstErr.Load() != nil {
						return
					}
					runOne(k)
				}
			}(w)
		}
	}
	wg.Wait()
	wallNS := time.Since(wallStart).Nanoseconds()
	close(stopSampler)
	<-samplerDone

	if ep := firstErr.Load(); ep != nil {
		return nil, *ep
	}
	return buildReport(cfg, results, samples, wallNS,
		rejected.Load(), clientRetries.Load()), nil
}
