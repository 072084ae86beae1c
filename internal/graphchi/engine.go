package graphchi

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/offheap"
	"repro/internal/vm"
)

// App selects the vertex program.
type App int

// Supported applications (§4.1 evaluates PR and CC).
const (
	PageRank App = iota
	ConnectedComponents
)

func (a App) String() string {
	if a == PageRank {
		return "PR"
	}
	return "CC"
}

// progClass returns the FJ class implementing the app's vertex program.
func (a App) progClass() string {
	if a == PageRank {
		return "PageRankProgram"
	}
	return "ConnCompProgram"
}

// bytesPerEdge is the load estimator used to convert the memory budget into
// an edge count per interval: a ChiPointer record plus its array slot plus
// amortized vertex overhead.
const bytesPerEdge = 48

// Config drives one engine run.
type Config struct {
	App        App
	Workers    int // worker threads that load, update and extract (paper: two pools of 16)
	Iterations int // full passes over the graph
	// MemoryBudget bounds the bytes of vertex/edge objects loaded per
	// sub-iteration; GraphChi derives it from the maximum heap size, so
	// callers pass a value proportional to the configured heap.
	MemoryBudget int64

	// Faults configures deterministic fault injection (nil disables).
	// RunProgram threads the derived injector into the VM so heap-alloc
	// and page-acquire points fire, and the engine plans worker-thread
	// crashes from the same seed. Interval recovery itself is always on:
	// a sub-iteration that fails with memory exhaustion or a worker
	// crash is replayed from the shard files instead of aborting.
	Faults *faults.Config

	// Tiering spills cold off-heap pages to a file-backed store
	// (RunProgram threads it into the VM; nil keeps every page in DRAM).
	// A failed promotion from disk surfaces as offheap.ErrPageExhausted
	// and rides the same degradation ladder as page exhaustion. P only
	// ignores it — untransformed programs have no pages.
	Tiering *offheap.TierConfig
}

// Metrics are the measurements Table 2 reports, plus the object counters
// behind the paper's §4.1 object-bound claim.
type Metrics struct {
	ET time.Duration // total execution time
	UT time.Duration // engine update time
	LT time.Duration // data load (+store) time

	// Memory is the run's GC time GT, its peak memory PM (managed heap
	// peak + native peak) and the collection counts, read off Obs.
	obs.Memory

	SubIters    int
	DataObjects int64 // heap objects allocated for the data classes
	Pages       int64 // native pages created (P' only)
	PagesLiveHW int64 // high-water mark of simultaneously live pages
	Records     int64 // page records allocated (P' only)

	// Disk-tier traffic (P' with Config.Tiering only).
	PagesSpilled  int64
	PagesPromoted int64
	Edges         int64 // edges processed (NumEdges * Iterations)

	// Obs is the run's full observability snapshot (GC pause histograms,
	// safepoint waits, page counters, interpreter counters, event ring).
	// Its recovery.* counters are the run's fault-tolerance activity; a
	// failure-free run has none.
	Obs obs.Snapshot
	// ClassAllocs counts heap allocations per class/array type.
	ClassAllocs map[string]int64
}

// Throughput returns edges processed per second (Figure 4a's metric).
func (m *Metrics) Throughput() float64 {
	if m.ET == 0 {
		return 0
	}
	return float64(m.Edges) / m.ET.Seconds()
}

// maxIntervalReplays bounds recovery attempts for a single sub-iteration,
// so a fault storm degenerates into an error instead of an endless replay.
const maxIntervalReplays = 64

// engine carries one run's control-path state: the VM boundary objects
// and the worker pool. Recovery is counted in the VM's registry.
type engine struct {
	machine *vm.VM
	main    *vm.Thread
	pool    *workerPool
	prog    vm.Obj
	sg      *ShardedGraph
	cfg     Config

	inj     *faults.Injector
	plan    faults.Plan // planned worker crashes, by sub-iteration ordinal
	subIter int         // global sub-iteration ordinal (crash occasions)

	// afterSubIter, when set (tests), runs after every sub-iteration
	// attempt on the vertex range iv, failed or not, once its page managers
	// are closed.
	afterSubIter func(iv [2]int, err error)

	// out receives an interval's updated values until the whole interval
	// has succeeded; it is sized once per run to the largest interval.
	out []float64
}

// Run executes cfg.Iterations passes of the vertex program over sg on the
// given VM (program P or P') and returns metrics plus the final vertex
// values. Fault injection draws from the injector the VM was built with
// (vm.Config.Faults); RunProgram wires cfg.Faults there.
func Run(machine *vm.VM, sg *ShardedGraph, cfg Config) (*Metrics, []float64, error) {
	return run(machine, sg, cfg, nil)
}

// run is Run with the engine's afterSubIter probe.
func run(machine *vm.VM, sg *ShardedGraph, cfg Config, afterSubIter func([2]int, error)) (*Metrics, []float64, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 3
	}
	if cfg.MemoryBudget <= 0 {
		cfg.MemoryBudget = 8 << 20
	}

	main, err := machine.NewThread(nil)
	if err != nil {
		return nil, nil, err
	}
	defer main.Close()

	e := &engine{machine: machine, main: main, sg: sg, cfg: cfg, inj: machine.Injector(), afterSubIter: afterSubIter}
	e.pool, err = newWorkerPool(machine, main, cfg.Workers)
	if err != nil {
		return nil, nil, err
	}
	defer func() { e.pool.close() }()

	e.prog, err = main.NewObj(cfg.App.progClass())
	if err != nil {
		return nil, nil, err
	}
	defer main.FreeObj(e.prog)

	// Vertex values ("vertex data file" on disk, control path).
	values := make([]float64, sg.NumVertices)
	for i := range values {
		if cfg.App == PageRank {
			values[i] = 1.0
		} else {
			values[i] = float64(i)
		}
	}

	intervals := sg.Intervals(cfg.MemoryBudget / bytesPerEdge)
	longest := 0
	for _, iv := range intervals {
		longest = max(longest, iv[1]-iv[0])
	}
	e.out = make([]float64, longest)
	e.plan = e.inj.CrashPlan(cfg.Iterations*len(intervals), cfg.Workers)
	met := &Metrics{Edges: int64(sg.NumEdges()) * int64(cfg.Iterations)}
	start := time.Now()

	reg := machine.Obs()
	for iter := 0; iter < cfg.Iterations; iter++ {
		iterStart := time.Now()
		main.IterationStart()
		for _, iv := range intervals {
			if err := e.runInterval(iv, values, met); err != nil {
				main.IterationEnd()
				return nil, nil, fmt.Errorf("graphchi: interval %v: %w", iv, err)
			}
			met.SubIters++
			e.subIter++
		}
		main.IterationEnd()
		reg.Emit(obs.EvIteration, "graphchi", int64(iter), time.Since(iterStart).Nanoseconds(), int64(len(intervals)))
	}

	met.ET = time.Since(start)
	if machine.RT != nil {
		ns := machine.RT.Stats()
		met.Pages = ns.PagesCreated
		met.PagesLiveHW = ns.PagesLiveHW
		met.Records = ns.Records
		met.PagesSpilled = ns.PagesSpilled
		met.PagesPromoted = ns.PagesPromoted
	}
	met.DataObjects = countDataObjects(machine)
	met.ClassAllocs = machine.Heap.ClassAllocCounts()
	met.Obs = reg.Snapshot()
	met.Memory = obs.MemoryOf(met.Obs)
	return met, values, nil
}

// RunProgram builds a VM for prog with the given heap budget and runs the
// engine on it. It is the entry point for callers that only need metrics:
// everything the run measured comes back in Metrics (including the
// observability snapshot), so no VM or heap types leak out. cfg.Faults is
// wired into the VM here, so injected heap-alloc and page-acquire faults
// fire alongside the engine's planned worker crashes.
func RunProgram(prog *ir.Program, heapSize int, sg *ShardedGraph, cfg Config) (*Metrics, []float64, error) {
	vmCfg := vm.Config{HeapSize: heapSize, Faults: faults.New(cfg.Faults)}
	if prog.Transformed {
		vmCfg.Tiering = cfg.Tiering
	}
	machine, err := vm.New(prog, vmCfg)
	if err != nil {
		return nil, nil, err
	}
	// Metrics are taken inside Run; what Release frees (the spill file
	// above all) has no reader after it, and a run that leaked a thread
	// already reports its own error.
	defer func() { _ = machine.Release() }()
	return Run(machine, sg, cfg)
}

// countDataObjects totals heap allocations of the profiled data classes
// (facade classes for P').
func countDataObjects(machine *vm.VM) int64 {
	var n int64
	for _, name := range []string{"ChiVertex", "ChiPointer", "VertexDegree"} {
		if c := machine.Prog.H.Class(name); c != nil && !machine.Prog.Transformed {
			n += machine.Heap.ClassAllocCount(c)
		}
		if c := machine.Prog.H.Class(ir.FacadeName(name)); c != nil {
			n += machine.Heap.ClassAllocCount(c)
		}
	}
	return n
}

// runInterval executes one sub-iteration with recovery: the ShardedGraph
// plus values[a:b] at entry are a complete checkpoint, so a failed attempt
// is replayed from them — with fresh worker threads after a crash, and at
// a halved memory budget (the interval re-split via IntervalsIn) after a
// memory-exhaustion failure. values is written only after every chunk of
// every piece of the interval has succeeded, which is what makes the
// replay sound and bit-identical: all pieces read the same pre-interval
// snapshot no matter how the ladder re-split the range.
func (e *engine) runInterval(iv [2]int, values []float64, met *Metrics) error {
	if iv[1]-iv[0] == 0 {
		return nil
	}
	budget := e.cfg.MemoryBudget
	// Taking the planned worker crash consumes it, so a replay of this
	// sub-iteration does not re-fire it.
	crashChunk := -1
	if chunk, ok := e.plan.Take(e.subIter); ok {
		crashChunk = chunk
	}
	reg := e.machine.Obs()
	for attempt := 0; ; attempt++ {
		if attempt > maxIntervalReplays {
			return fmt.Errorf("still failing after %d recovery attempts", maxIntervalReplays)
		}
		err := e.runIntervalAt(iv, values, budget, crashChunk, met)
		crashChunk = -1 // a planned crash fires on the first attempt only
		if err == nil {
			copy(values[iv[0]:iv[1]], e.out)
			return nil
		}
		switch {
		case errors.Is(err, errWorkerCrashed):
			// Rebuild the update fleet from scratch and replay the
			// sub-iteration from the shard.
			reg.Counter(obs.CtrCrashes).Inc()
			reg.Counter(obs.CtrIntervalRetries).Inc()
			reg.Emit(obs.EvRecovery, "crash", int64(workerOf(err)), int64(e.subIter), int64(attempt))
			if rerr := e.restartPool(); rerr != nil {
				return fmt.Errorf("rebuilding workers after crash: %w", rerr)
			}
		case vm.IsOOM(err):
			// Degradation ladder: halve the budget for this interval and
			// re-split it; a single vertex that still does not fit is a
			// genuine out-of-memory result.
			reg.Counter(obs.CtrOOMRecoveries).Inc()
			reg.Counter(obs.CtrIntervalRetries).Inc()
			reg.Emit(obs.EvRecovery, "oom", -1, int64(e.subIter), int64(attempt))
			if budget/2/bytesPerEdge < 1 {
				return fmt.Errorf("out of memory with budget ladder exhausted (budget %d): %w", budget, err)
			}
			budget /= 2
			reg.Counter(obs.CtrBudgetHalvings).Inc()
			reg.Emit(obs.EvDegraded, "interval", int64(iv[0]), budget/bytesPerEdge, int64(e.subIter))
		default:
			return err
		}
	}
}

// runIntervalAt runs the interval as one or more pieces under the given
// budget, collecting the updated values in e.out[:b-a] without touching
// the values slice. Every piece reads the same pre-interval values, so the
// result is bit-identical whatever the split.
func (e *engine) runIntervalAt(iv [2]int, values []float64, budget int64, crashChunk int, met *Metrics) error {
	for _, sub := range e.sg.IntervalsIn(iv[0], iv[1], budget/bytesPerEdge) {
		err := e.runIntervalOnce(sub, values, crashChunk, met, e.out[sub[0]-iv[0]:sub[1]-iv[0]])
		if e.afterSubIter != nil {
			e.afterSubIter(sub, err)
		}
		if err != nil {
			return err
		}
		crashChunk = -1
	}
	return nil
}

// runIntervalOnce loads [a, b) from the shard into the data path, updates
// it and extracts the values, each phase on the worker pool over the same
// chunks, and reads the values for the range into out. The caller owns the
// write-back; on any error the values slice is untouched.
func (e *engine) runIntervalOnce(iv [2]int, values []float64, crashChunk int, met *Metrics, out []float64) error {
	main, sg, cfg := e.main, e.sg, e.cfg
	a, b := iv[0], iv[1]
	n := b - a
	main.IterationStart() // sub-iteration
	defer main.IterationEnd()

	loadStart := time.Now()
	eStart, eEnd := sg.InStart[a], sg.InStart[b]
	srcs := sg.InSrc[eStart:eEnd]
	srcVals := func(from int, dst []float64) {
		for i, s := range srcs[from : from+len(dst)] {
			dst[i] = values[s]
			if cfg.App == PageRank {
				dst[i] /= float64(max(sg.OutDeg[s], 1))
			}
		}
	}

	// Boundary: ship the shard slice into the data path, in the main
	// thread's sub-iteration manager with the vertex array. The columns go
	// in straight from the shard and the vertex values, and the source
	// values are computed into their array's body: no Go copy of either.
	var objs []vm.Obj
	defer func() {
		for _, o := range objs {
			main.FreeObj(o)
		}
	}()
	ship := func(o vm.Obj, err error) (vm.Obj, error) {
		objs = append(objs, o)
		return o, err
	}
	oInCounts, err := ship(main.NewIntArr(sg.InDeg[a:b]))
	if err != nil {
		return err
	}
	oOutDegs, err := ship(main.NewIntArr(sg.OutDeg[a:b]))
	if err != nil {
		return err
	}
	oSrcs, err := ship(main.NewIntArr(srcs))
	if err != nil {
		return err
	}
	oSrcVals, err := ship(main.NewDoubleArrOf(len(srcs), srcVals))
	if err != nil {
		return err
	}
	oInit, err := ship(main.NewDoubleArr(values[a:b]))
	if err != nil {
		return err
	}
	vs, err := ship(main.NewArr("ChiVertex", n))
	if err != nil {
		return err
	}

	// Build on the pool: each worker allocates its chunks' vertices and
	// edges in its own sub-iteration manager, closed (deferred, so on every
	// path) before the main thread's. Build, update and extract share one
	// chunking.
	e.pool.iterationStart()
	defer e.pool.iterationEnd()
	chunks := sg.chunks(iv, cfg.Workers)
	if crashChunk >= 0 {
		crashChunk %= len(chunks)
	}
	err = e.pool.each("buildRange", chunks, crashChunk, func(c [2]int) []vm.Arg {
		return []vm.Arg{vm.O(vs), vm.I(int64(a)), vm.I(int64(c[0])), vm.I(int64(c[1])), vm.I(sg.InStart[a+c[0]] - eStart),
			vm.O(oInCounts), vm.O(oOutDegs), vm.O(oSrcs), vm.O(oSrcVals), vm.O(oInit)}
	})
	if err != nil {
		return err
	}
	met.LT += time.Since(loadStart)

	// Parallel update, on the same chunks.
	updStart := time.Now()
	err = e.pool.each("runRange", chunks, -1, func(c [2]int) []vm.Arg {
		return []vm.Arg{vm.O(e.prog), vm.O(vs), vm.I(int64(c[0])), vm.I(int64(c[1]))}
	})
	met.UT += time.Since(updStart)
	if err != nil {
		return err
	}

	// Extract the updated values (exit conversion), on the same chunks;
	// the caller commits them to the vertex data file only after the whole
	// interval succeeds.
	storeStart := time.Now()
	oOut, err := ship(main.NewArr("double", n))
	if err != nil {
		return err
	}
	err = e.pool.each("extractRange", chunks, -1, func(c [2]int) []vm.Arg {
		return []vm.Arg{vm.O(vs), vm.O(oOut), vm.I(int64(c[0])), vm.I(int64(c[1]))}
	})
	if err != nil {
		return err
	}
	if err := main.ReadDoubleArrInto(oOut, out); err != nil {
		return err
	}
	met.LT += time.Since(storeStart)
	return nil
}

// restartPool tears down the worker fleet (closing every thread, dead or
// alive) and builds a fresh one. Replacement threads parent their page
// managers at the VM root scope, so they are safe to create while the
// main thread is inside an iteration.
func (e *engine) restartPool() error {
	e.pool.close()
	pool, err := newWorkerPool(e.machine, nil, e.cfg.Workers)
	if err != nil {
		return err
	}
	e.pool = pool
	e.machine.Obs().Counter(obs.CtrWorkerRestarts).Add(int64(e.cfg.Workers))
	return nil
}

// errWorkerCrashed marks a chunk lost to a planned worker-thread crash.
var errWorkerCrashed = errors.New("graphchi: worker thread crashed (injected)")

// crashError tags errWorkerCrashed with the dead worker's index.
type crashError struct{ worker int }

func (c *crashError) Error() string { return fmt.Sprintf("%v: worker %d", errWorkerCrashed, c.worker) }
func (c *crashError) Unwrap() error { return errWorkerCrashed }

// workerOf extracts the crashed worker index from an error tree.
func workerOf(err error) int {
	var ce *crashError
	if errors.As(err, &ce) {
		return ce.worker
	}
	return -1
}

// ---------------------------------------------------------------------------
// Worker pool: long-lived VM threads running one chunk of an interval each,
// for the build, the update and the extract alike.

type workerTask struct {
	run func(t *vm.Thread) error
	err chan<- error
}

type workerPool struct {
	tasks   chan workerTask
	wg      sync.WaitGroup
	threads []*vm.Thread
}

// newWorkerPool spawns n worker threads. parent may be nil (threads then
// parent their page managers at the VM root scope), which is what crash
// recovery uses: the pool must be rebuildable while the main thread is
// inside an iteration scope that will be released before the pool is.
func newWorkerPool(machine *vm.VM, parent *vm.Thread, n int) (*workerPool, error) {
	p := &workerPool{tasks: make(chan workerTask)}
	for i := 0; i < n; i++ {
		t, err := machine.NewThread(parent)
		if err != nil {
			p.close()
			return nil, err
		}
		p.threads = append(p.threads, t)
		p.wg.Add(1)
		go func(t *vm.Thread) {
			defer p.wg.Done()
			for task := range p.tasks {
				task.err <- task.run(t)
			}
		}(t)
	}
	return p, nil
}

// each invokes GraphChiDriver.method once per chunk on the pool, with the
// arguments args builds for the chunk, waits for every chunk and returns the
// first error, tagged with the method and chunk. The worker that draws
// chunk crash (-1: none) is the planned crash: it dies halfway through its
// chunk, leaving what it allocated to the sub-iteration's release, and the
// engine rebuilds the fleet.
func (p *workerPool) each(method string, chunks [][2]int, crash int, args func(c [2]int) []vm.Arg) error {
	errs := make(chan error, len(chunks))
	for ci, c := range chunks {
		p.tasks <- workerTask{err: errs, run: func(t *vm.Thread) error {
			if ci == crash {
				c[1] = c[0] + (c[1]-c[0])/2
			}
			_, err := t.InvokeStatic("GraphChiDriver", method, args(c)...)
			if err == nil && ci == crash {
				err = &crashError{worker: ci}
			}
			if err != nil {
				return fmt.Errorf("%s %v: %w", method, c, err)
			}
			return nil
		}}
	}
	var first error
	for range chunks {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// iterationStart opens one page manager per ⟨sub-iteration, worker⟩
// (§3.6), a child of the worker's current manager; iterationEnd releases
// them. The main goroutine does both while every worker is idle — the
// channel hand-offs of each order them against the workers' use.
func (p *workerPool) iterationStart() {
	for _, t := range p.threads {
		t.IterationStart()
	}
}

func (p *workerPool) iterationEnd() {
	for _, t := range p.threads {
		t.IterationEnd()
	}
}

func (p *workerPool) close() {
	close(p.tasks)
	p.wg.Wait()
	for _, t := range p.threads {
		t.Close()
	}
}
