package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"
)

// options are the knobs of one benchmark invocation.
type options struct {
	seed uint64
	// untraced and traced are the timed regions of the two passes in
	// seconds; a pass with 0 is skipped. End-to-end metrics come from the
	// untraced pass, per-layer metrics and spans from the traced one.
	untraced float64
	traced   float64
	quick    bool   // fixed tiny passes: 2 steps each, 1 set-up
	workdir  string // journals, port files and spill files live here
}

// workers is the worker, client and executor count of every workload.
func workers() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// setupReps is how many times a run sets its workload up; setup_s is the
// fastest, for the reason unit_best_s is (see pass.best).
const setupReps = 7

// workload is one named set of inputs. setup builds a fresh instance from
// the seed and returns the set-up layer readings in seconds.
type workload struct {
	name  string
	why   string
	setup func(o options) (instance, map[string]float64, error)
}

// instance is a workload whose inputs are built. A step is the smallest
// piece the pass loop repeats: one unit for the engine and compile
// workloads, one fixed-plan round of jobs for the daemon workloads.
type instance interface {
	// step runs the step whose first unit has ordinal unit, recording
	// spans on tr (nil in the untraced pass).
	step(tr *tracer, unit int) (*stepResult, error)
	// finish runs once after the passes: reference checks that need runs
	// of their own and, when tr is non-nil, layer probes that are no part
	// of any unit. It returns the failed checks and the probe readings.
	finish(tr *tracer) ([]string, map[string][]float64)
	// close tears the instance down and returns teardown readings.
	close() map[string]float64
}

// stepResult is what one step measured.
type stepResult struct {
	wall float64   // seconds the step's timed region took
	durs []float64 // duration of each unit, seconds
	// keys says which units are repetitions of one another: units with
	// equal keys do the same work on the same input. Nil means every unit
	// of the workload does.
	keys   []int
	ends   []float64 // completion offset of each unit within the step, seconds
	fails  []string  // one entry per unit that errored or produced a wrong output
	peakMB float64   // managed-heap peak + native-page peak, largest over the step
	// obs are the per-layer observations, keyed by metric name; filled
	// only when the step was traced.
	obs map[string][]float64
}

// pass is the fold of the steps of one timed pass.
type pass struct {
	steps  int
	clock  float64 // summed step wall time: time between steps is excluded
	durs   []float64
	ends   []float64 // completion offsets on the pass's own clock
	fails  []string
	peakMB float64
	obs    map[string][]float64

	// best is the fastest repetition of every distinct unit. The shared
	// runner's neighbours only ever add time, in bursts and for minutes on
	// end, so the median over a run follows the neighbour while the
	// fastest repetition follows the program (README.md, "Measured
	// repeatability").
	best  map[int]float64
	floor float64 // fastest probe taken between the steps, seconds
}

func (p *pass) add(r *stepResult) {
	for _, e := range r.ends {
		p.ends = append(p.ends, p.clock+e)
	}
	p.clock += r.wall
	p.steps++
	p.durs = append(p.durs, r.durs...)
	p.fails = append(p.fails, r.fails...)
	if r.peakMB > p.peakMB {
		p.peakMB = r.peakMB
	}
	for name, xs := range r.obs {
		p.obs[name] = append(p.obs[name], xs...)
	}
	for i, d := range r.durs {
		key := 0
		if r.keys != nil {
			key = r.keys[i]
		}
		if old, ok := p.best[key]; !ok || d < old {
			p.best[key] = d
		}
	}
}

// bestUnit is the median, over the distinct units, of each one's fastest
// repetition.
func (p *pass) bestUnit() float64 {
	fastest := make([]float64, 0, len(p.best))
	for _, d := range p.best {
		fastest = append(fastest, d)
	}
	return median(fastest)
}

// probeNow takes a probe between steps and keeps the fastest.
func (p *pass) probeNow() {
	if v := probe(); p.floor == 0 || v < p.floor {
		p.floor = v
	}
}

// runPass repeats inst.step for budget seconds (at least one step), or for
// exactly fixed steps when fixed > 0.
func runPass(inst instance, tr *tracer, budget float64, fixed int) (*pass, error) {
	p := &pass{obs: make(map[string][]float64), best: make(map[int]float64)}
	start := time.Now()
	for {
		p.probeNow()
		if fixed > 0 && p.steps == fixed {
			return p, nil
		}
		if fixed == 0 && p.steps > 0 && time.Since(start).Seconds() >= budget {
			return p, nil
		}
		r, err := inst.step(tr, len(p.durs))
		if err != nil {
			return nil, err
		}
		p.add(r)
	}
}

// passMetrics reads the end-to-end timing metrics off one pass.
func passMetrics(p *pass, workload string) map[string]float64 {
	best := p.bestUnit()
	out := map[string]float64{
		mUnitRel:   best / p.floor,
		mPeakMB:    p.peakMB,
		mUnitBest:  best,
		mProbe:     p.floor,
		mUnitP50:   median(p.durs),
		mUnitsPerS: batchRate(p.ends),
	}
	if m, _ := findMetric(endToEnd, mUnitP99); m.appliesTo(workload) {
		// A refused percentile reads 0: too few samples is not a tail.
		out[mUnitP99], _ = percentile(p.durs, 0.99)
	}
	return out
}

// workloadResult is everything one workload reported.
type workloadResult struct {
	name        string
	units       int // timed units of the untraced pass
	tracedUnits int
	setupReps   int
	attempted   int
	failed      int
	failures    []string
	endToEnd    map[string]float64 // nil when the untraced pass was skipped
	perLayer    map[string]float64 // nil when the traced pass was skipped
	shares      map[string]float64 // span name -> share of unit time (self time)
	spans       []span
}

// addReadings appends single readings to an observation map.
func addReadings(obs map[string][]float64, readings map[string]float64) {
	for name, v := range readings {
		obs[name] = append(obs[name], v)
	}
}

// runWorkload applies the method every workload shares: set-up (repeated,
// untimed, reported as setup_s), one discarded warm-up step, the untraced
// pass, the traced pass, then the reference checks.
func runWorkload(w workload, o options) (*workloadResult, error) {
	res := &workloadResult{name: w.name, setupReps: setupReps}
	fixed := 0
	if o.quick {
		res.setupReps, fixed = 1, 2
	}
	edge := make(map[string][]float64) // set-up, probe and teardown readings
	var inst instance
	var setups []float64
	for i := 0; i < res.setupReps; i++ {
		if inst != nil {
			addReadings(edge, inst.close())
		}
		runtime.GC()
		start := time.Now()
		next, readings, err := w.setup(o)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		addReadings(edge, readings)
		inst = next
	}
	closed := false
	defer func() {
		if !closed {
			inst.close()
		}
	}()

	// The warm-up step's timings are discarded; a wrong output is not.
	warm, err := inst.step(nil, -1)
	if err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	res.failures = append(res.failures, warm.fails...)

	var plain, traced *pass
	if o.untraced > 0 {
		if plain, err = runPass(inst, nil, o.untraced, fixed); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		res.units = len(plain.durs)
		res.attempted += len(plain.durs)
		res.failures = append(res.failures, plain.fails...)
	}
	var tr *tracer
	if o.traced > 0 {
		tr = newTracer()
		if traced, err = runPass(inst, tr, o.traced, fixed); err != nil {
			return nil, fmt.Errorf("%s: traced: %w", w.name, err)
		}
		res.tracedUnits = len(traced.durs)
		res.attempted += len(traced.durs)
		res.failures = append(res.failures, traced.fails...)
	}
	checkFails, probes := inst.finish(tr)
	res.failures = append(res.failures, checkFails...)
	for name, xs := range probes {
		edge[name] = append(edge[name], xs...)
	}
	addReadings(edge, inst.close())
	closed = true
	if res.failed = len(res.failures); res.failed > res.attempted {
		res.failed = res.attempted
	}

	failShare := float64(res.failed) / float64(res.attempted)
	if plain != nil {
		res.endToEnd = passMetrics(plain, w.name)
		res.endToEnd[mSetup] = slices.Min(setups)
		res.endToEnd[mFailShare] = failShare
	}
	if traced != nil {
		for name, xs := range edge {
			traced.obs[name] = append(traced.obs[name], xs...)
		}
		res.spans = tr.snapshot()
		var loose float64
		res.shares, loose = layerShares(res.spans)
		traced.obs["trace.unaccounted_share"] = []float64{loose}
		own := passMetrics(traced, w.name)
		if plain != nil {
			traced.obs["trace.overhead_ratio"] = []float64{own[mUnitRel] / res.endToEnd[mUnitRel]}
		}
		if res.perLayer, err = aggregate(traced.obs); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		// The end-to-end metrics BENCHMARK.json cannot list as such (no
		// bound, not defined on every workload, or expected to be 0) ride
		// with the per-layer ones, read off the traced pass.
		own[mFailShare] = failShare
		for _, m := range endToEnd {
			if !m.uniform() {
				res.perLayer[m.name] = own[m.name]
			}
		}
	}
	return res, nil
}
