package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/facade"
	"repro/internal/ir"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/vm"
)

const (
	serveTenants = 2
	// roundJobs is the fixed job plan one step pushes through the daemon.
	// Every round replays plan indices 0..roundJobs-1, so per-round counts
	// and the results digest must repeat exactly; the clients meet at the
	// round's end, which idles one of them for about half a job per round.
	roundJobs      = 100
	quickRoundJobs = 20
	// oneShotEvery: every 50th job of the plan is re-run through
	// server.OneShot and must give the same output.
	oneShotEvery = 50
	// probeJobs is how many plan entries the traced pass also runs
	// straight through facade.RunContext, cold and warm.
	probeJobs = 40
)

// serveInstance is an in-process daemon with its journal on, driven over
// loopback HTTP by closed-loop clients: each submits, waits for the
// result, and only then submits again, as `repro submit`/`wait` do.
type serveInstance struct {
	name    string
	cold    bool
	seed    uint64
	dir     string
	journal string
	srv     *server.Server
	client  *server.Client
	plan    []load.JobPlan

	jobSeq    atomic.Int64 // cold: names every job's source file
	digest    string       // results digest every round must reproduce
	outputs   []string     // the first round's output per plan index
	tracedLat []float64    // traced job latencies, for server.overhead_s
}

func serveWorkload(name, why string, cold bool) workload {
	return workload{name: name, why: why, setup: func(o options) (instance, map[string]float64, error) {
		dir, err := os.MkdirTemp(o.workdir, name+"-")
		if err != nil {
			return nil, nil, err
		}
		s := &serveInstance{name: name, cold: cold, seed: o.seed, dir: dir, journal: filepath.Join(dir, "journal.jsonl")}
		start := time.Now()
		s.srv, err = server.New(server.Config{
			PortFile:      filepath.Join(dir, "port.json"),
			JournalPath:   s.journal,
			MaxConcurrent: workers(),
		})
		if err != nil {
			os.RemoveAll(dir)
			return nil, nil, err
		}
		s.client = &server.Client{BaseURL: "http://" + s.srv.Addr()}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.srv.WaitReady(ctx); err != nil {
			s.close()
			return nil, nil, err
		}
		if _, err := s.client.Ready(); err != nil {
			s.close()
			return nil, nil, err
		}
		started := time.Since(start).Seconds()
		n := roundJobs
		if o.quick {
			n = quickRoundJobs
		}
		cfg := load.Config{Seed: int64(o.seed), Jobs: n, Tenants: serveTenants}
		for k := 0; k < n; k++ {
			s.plan = append(s.plan, load.Plan(cfg, k))
		}
		// Prime the daemon with one job per scenario: compilation is not
		// the subject of the warm path, so it belongs to set-up.
		for _, sc := range load.Scenarios() {
			resp, err := s.client.Submit(server.SubmitRequest{Sources: sc.Sources, Transform: sc.Transform, HeapSize: sc.HeapSize})
			if err == nil {
				var st server.JobStatus
				if st, err = s.client.Wait(resp.JobID); err == nil {
					err = st.Err()
				}
			}
			if err != nil {
				s.close()
				return nil, nil, fmt.Errorf("priming %s: %w", sc.Name, err)
			}
		}
		return s, map[string]float64{"server.start_s": started}, nil
	}}
}

// request builds plan entry k's submission. On the cold path every job's
// source file gets a name of its own, so the daemon's program key misses
// the program cache and the warm pool: compile and vm.New on every job.
func (s *serveInstance) request(k int, cold bool) server.SubmitRequest {
	p := s.plan[k]
	sc, _ := load.ScenarioByName(p.Scenario)
	seed := p.Seed
	req := server.SubmitRequest{
		Tenant: p.Tenant, Sources: sc.Sources, Transform: sc.Transform,
		HeapSize: sc.HeapSize, RandSeed: &seed,
	}
	if cold {
		n := s.jobSeq.Add(1)
		req.Sources = make(map[string]string, len(sc.Sources))
		for _, src := range sc.Sources {
			req.Sources[fmt.Sprintf("%s-%d.fj", p.Scenario, n)] = src
		}
	}
	return req
}

// jobRecord is one job as its client saw it.
type jobRecord struct {
	submit, queued, running, total time.Duration
	end                            time.Duration // completion, since the round began
	status                         server.JobStatus
	rejected                       int
	err                            error
}

func (s *serveInstance) runJob(tr *tracer, unit, k int, roundStart time.Time) jobRecord {
	req := s.request(k, s.cold)
	var rec jobRecord
	root := tr.begin(-1, unit, unitSpan)
	t0 := time.Now()
	sub := tr.begin(root, unit, "Client.Submit")
	resp, err := s.client.SubmitWithRetry(req, server.SubmitOptions{
		MaxRetries: 16, Seed: int64(s.seed) ^ int64(k),
		OnReject: func(*server.RejectedError) { rec.rejected++ },
	})
	t1 := time.Now()
	tr.end(sub)
	if err != nil {
		tr.end(root)
		rec.err = fmt.Errorf("submit: %w", err)
		return rec
	}
	wait := tr.begin(root, unit, "Client.Wait")
	st, err := s.client.Wait(resp.JobID)
	t2 := time.Now()
	tr.end(wait)
	tr.end(root)
	if err != nil {
		rec.err = fmt.Errorf("wait: %w", err)
		return rec
	}
	rec.status = st
	rec.submit, rec.total, rec.end = t1.Sub(t0), t2.Sub(t0), t2.Sub(roundStart)
	rec.queued, rec.running = time.Duration(st.QueuedNanos), time.Duration(st.RunningNanos)
	if tr != nil {
		// The daemon stamps a job queued before its journal commit and
		// acknowledges after, so queueing starts inside Submit; whatever
		// of it outlasts the acknowledgement, and the run, sit inside Wait.
		inSubmit := rec.queued
		if inSubmit > rec.submit {
			inSubmit = rec.submit
		}
		tr.synth(sub, "server.queued", rec.submit-inSubmit, inSubmit)
		rest := rec.queued - inSubmit
		tr.synth(wait, "server.queued", 0, rest)
		run := tr.synth(wait, "server.running", rest, rec.running)
		if st.Stats != nil {
			tr.synth(run, "heap.gc", 0, st.Stats.Heap.GCTime)
		}
	}
	return rec
}

func (s *serveInstance) step(tr *tracer, unit int) (*stepResult, error) {
	n := len(s.plan)
	recs := make([]jobRecord, n)
	var journalBefore int64
	var depthMax atomic.Int64
	stopSampler := make(chan struct{})
	var sampler sync.WaitGroup
	if tr != nil {
		if fi, err := os.Stat(s.journal); err == nil {
			journalBefore = fi.Size()
		}
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopSampler:
					return
				case <-tick.C:
					if q := int64(s.srv.Status().JobsQueued); q > depthMax.Load() {
						depthMax.Store(q)
					}
				}
			}
		}()
	}
	clients := workers()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < n; k += clients {
				recs[k] = s.runJob(tr, unit+k, k, start)
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	close(stopSampler)
	sampler.Wait()

	res := &stepResult{wall: wall}
	sum := make(map[string]float64)
	ob := make(map[string][]float64)
	lines := make([]string, n)
	outputs := make([]string, n)
	var warmHits, rejected, acquires float64
	for k, r := range recs {
		p := s.plan[k]
		if r.err != nil {
			res.fails = append(res.fails, fmt.Sprintf("%s job %d (%s): %v", s.name, k, p.Scenario, r.err))
			res.durs = append(res.durs, wall)
			res.ends = append(res.ends, wall)
			res.keys = append(res.keys, k)
			continue
		}
		res.durs = append(res.durs, r.total.Seconds())
		res.ends = append(res.ends, r.end.Seconds())
		res.keys = append(res.keys, k) // every round repeats plan entry k
		st := r.status
		if st.State != server.StateDone {
			res.fails = append(res.fails, fmt.Sprintf("%s job %d (%s): %s: %s", s.name, k, p.Scenario, st.State, st.Error))
		}
		outputs[k] = st.Output
		sha := sha256.Sum256([]byte(st.Output))
		lines[k] = fmt.Sprintf("%d|%s|%s|%d|%s|%x", k, p.Scenario, p.Tenant, p.Seed, st.State, sha)
		rejected += float64(r.rejected)
		if st.WarmHit {
			warmHits++
		}
		if st.Stats == nil {
			continue
		}
		if pm := mb(st.Stats.Heap.PeakUsed + st.Stats.Offheap.PeakBytes); pm > res.peakMB {
			res.peakMB = pm
		}
		if tr == nil {
			continue
		}
		s.tracedLat = append(s.tracedLat, r.total.Seconds())
		deliver := r.total - r.queued - r.running
		if deliver < 0 {
			deliver = 0
		}
		ob["server.submit_ack_s"] = append(ob["server.submit_ack_s"], r.submit.Seconds())
		ob["server.queued_s"] = append(ob["server.queued_s"], r.queued.Seconds())
		ob["server.running_s"] = append(ob["server.running_s"], r.running.Seconds())
		ob["server.deliver_s"] = append(ob["server.deliver_s"], deliver.Seconds())
		ob["heap.gc_s"] = append(ob["heap.gc_s"], st.Stats.Heap.GCTime.Seconds())
		ob["heap.peak_mb"] = append(ob["heap.peak_mb"], mb(st.Stats.Heap.PeakUsed))
		ob["offheap.peak_mb"] = append(ob["offheap.peak_mb"], mb(st.Stats.Offheap.PeakBytes))
		ob["offheap.pages_live_hw"] = append(ob["offheap.pages_live_hw"], float64(st.Stats.Offheap.PagesLiveHW))
		sum["vm.instructions"] += float64(st.Stats.VM.Instructions)
		sum["vm.boundary_crossings"] += float64(st.Stats.VM.BoundaryCrossings)
		sum["vm.facade_pool_hits"] += float64(st.Stats.VM.FacadePoolHits)
		sum["heap.minor_gcs"] += float64(st.Stats.Heap.MinorGCs)
		sum["heap.full_gcs"] += float64(st.Stats.Heap.FullGCs)
		sum["heap.alloc_bytes"] += float64(st.Stats.Heap.AllocBytes)
		sum["heap.alloc_objects"] += float64(st.Stats.Heap.AllocObjects)
		sum["heap.promoted"] += float64(st.Stats.Heap.Promoted)
		sum["offheap.pages_created"] += float64(st.Stats.Offheap.PagesCreated)
		sum["offheap.pages_recycled"] += float64(st.Stats.Offheap.PagesRecycled)
		sum["offheap.records"] += float64(st.Stats.Offheap.Records)
		acquires += float64(st.Stats.Counters[obs.CtrPageAcquires])
	}

	hash := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	digest := hex.EncodeToString(hash[:])
	if s.digest == "" {
		s.digest, s.outputs = digest, outputs
	} else if digest != s.digest {
		res.fails = append(res.fails, fmt.Sprintf("%s round at unit %d: results digest %s, first round gave %s", s.name, unit, digest, s.digest))
	}
	if tr == nil {
		return res, nil
	}
	// Counts are per job, averaged over the fixed plan: the sum is exact,
	// so the mean repeats bit for bit.
	for name, v := range sum {
		ob[name] = []float64{v / float64(n)}
	}
	if acquires > 0 {
		ob["offheap.recycle_ratio"] = []float64{sum["offheap.pages_recycled"] / acquires}
	}
	ob["server.warm_hit_ratio"] = []float64{warmHits / float64(n)}
	ob["server.rejected"] = []float64{rejected}
	ob["server.queue_depth_max"] = []float64{float64(depthMax.Load())}
	if added, err := readFrom(s.journal, journalBefore); err == nil {
		// Three events a job (submitted, started, done); the bytes drift by
		// a digit now and then as the daemon's sequence numbers grow.
		ob["server.journal_events_per_job"] = []float64{float64(bytes.Count(added, []byte("\n"))) / float64(n)}
		ob["server.journal_bytes_per_job"] = []float64{float64(len(added)) / float64(n)}
	}
	res.obs = ob
	return res, nil
}

// readFrom returns the bytes of the file at path from offset on.
func readFrom(path string, offset int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		return nil, err
	}
	return io.ReadAll(f)
}

// finish re-runs every 50th job of the plan through server.OneShot, checks
// the results digest against the committed one, and — after a traced pass
// — runs the head of the plan straight through facade.RunContext, cold
// (fresh VM) and warm (reused VM), which is the job minus the daemon.
func (s *serveInstance) finish(tr *tracer) ([]string, map[string][]float64) {
	var fails []string
	for k := 0; k < len(s.plan); k += oneShotEvery {
		out, _, err := server.OneShot(s.request(k, false))
		if err != nil {
			fails = append(fails, fmt.Sprintf("%s job %d: one-shot: %v", s.name, k, err))
		} else if out != s.outputs[k] {
			fails = append(fails, fmt.Sprintf("%s job %d: daemon output differs from server.OneShot", s.name, k))
		}
	}
	if len(s.plan) == roundJobs {
		// Warm and cold share the plan, so they share the digest.
		if msg := checkExpected("serve/results_digest", s.seed, s.digest); msg != "" {
			fails = append(fails, s.name+": "+msg)
		}
	}
	if tr == nil {
		return fails, nil
	}
	probes := make(map[string][]float64)
	progs := make(map[string]*ir.Program)
	warm := make(map[string]*vm.VM)
	for k := 0; k < len(s.plan) && k < probeJobs; k++ {
		p := s.plan[k]
		sc, _ := load.ScenarioByName(p.Scenario)
		prog := progs[p.Scenario]
		if prog == nil {
			var err error
			if prog, err = compileScenario(sc); err != nil {
				return append(fails, fmt.Sprintf("%s: probe compile %s: %v", s.name, p.Scenario, err)), nil
			}
			progs[p.Scenario] = prog
			id := tr.begin(-1, -1, "vm.New")
			start := time.Now()
			_, err = vm.New(prog, vm.Config{HeapSize: sc.HeapSize})
			probes["vm.build_s"] = append(probes["vm.build_s"], time.Since(start).Seconds())
			tr.end(id)
			if err != nil {
				return append(fails, fmt.Sprintf("%s: probe vm.New %s: %v", s.name, p.Scenario, err)), nil
			}
		}
		for _, reuse := range []bool{false, true} {
			opts := []facade.Option{facade.WithHeapSize(sc.HeapSize), facade.WithRandSeed(p.Seed)}
			name := "facade.cold_run_s"
			if reuse {
				if warm[p.Scenario] == nil {
					continue
				}
				opts = append(opts, facade.WithReusedVM(warm[p.Scenario]))
				name = "facade.warm_run_s"
			}
			id := tr.begin(-1, -1, "facade.RunContext")
			start := time.Now()
			res, err := facade.RunContext(context.Background(), prog, opts...)
			took := time.Since(start).Seconds()
			tr.end(id)
			if err != nil {
				return append(fails, fmt.Sprintf("%s: probe run %s: %v", s.name, p.Scenario, err)), nil
			}
			probes[name] = append(probes[name], took)
			if res.Output() != s.outputs[k] {
				fails = append(fails, fmt.Sprintf("%s job %d: daemon output differs from facade.RunContext", s.name, k))
			}
			res.Close()
			warm[p.Scenario] = res.VM
		}
	}
	if !s.cold {
		probes["server.overhead_s"] = []float64{median(s.tracedLat) - median(probes["facade.warm_run_s"])}
	}
	return fails, probes
}

// compileScenario builds a scenario's program the way the daemon does.
func compileScenario(sc load.Scenario) (*ir.Program, error) {
	prog, err := facade.Compile(sc.Sources)
	if err != nil || !sc.Transform {
		return prog, err
	}
	var data []string
	for _, src := range sc.Sources {
		data = append(data, facade.DataClassesDirective(src)...)
	}
	return facade.Transform(prog, facade.TransformOptions{DataClasses: data})
}

func (s *serveInstance) close() map[string]float64 {
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err == nil {
		s.srv.Wait()
	}
	stop := time.Since(start).Seconds()
	http.DefaultClient.CloseIdleConnections()
	os.RemoveAll(s.dir)
	return map[string]float64{"server.stop_s": stop}
}
