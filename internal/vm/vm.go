// Package vm interprets IR programs (internal/ir) against the managed heap
// (internal/heap) and, for FACADE-transformed programs, the off-heap page
// store (internal/offheap). It plays the role of the JVM in the paper's
// evaluation:
//
//   - program P allocates every data item as a heap object; the VM's
//     frames, statics, facade pools, and handles are GC roots, and the
//     collector's cost grows with the number of live data objects;
//   - program P' allocates data records in pages via the page half of the
//     instruction set; the heap holds only control objects and the
//     per-thread facade pools, so collections trace almost nothing.
//
// The same interpreter executes both programs, which is what makes the
// measured differences attributable to the memory system rather than to
// differing execution engines.
package vm

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/faults"
	"repro/internal/heap"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/offheap"
)

// Value is the VM's raw 64-bit slot: int/long/bool/byte as sign-extended
// two's complement, double as IEEE bits, heap references as zero-extended
// addresses, page references as int64 bits.
type Value = uint64

// Config configures a VM instance.
type Config struct {
	// HeapSize is the managed heap budget (-Xmx).
	HeapSize int
	// Out receives Sys.print output; defaults to io.Discard.
	Out io.Writer
	// RandSeed seeds the deterministic Sys.rand source.
	RandSeed int64
	// GCWorkers is the number of workers every heap collection runs on
	// (heap.Config.GCWorkers); 0 picks the heap's default.
	GCWorkers int
	// Tiering, when non-nil, attaches a disk tier to the page store
	// (offheap.EnableTiering): cold pages spill to a file under the
	// configured watermarks and promote back on access. Ignored for
	// untransformed programs (they have no page store).
	Tiering *offheap.TierConfig
	// Obs receives the run's observability instruments (heap pause
	// histograms, page-store counters, VM execution counters, events). A
	// fresh registry is created when nil.
	Obs *obs.Registry
	// Faults, when non-nil, injects deterministic allocation failures into
	// the heap and the page store (internal/faults).
	Faults *faults.Injector
}

// VM executes one linked program.
type VM struct {
	Prog *ir.Program
	Heap *heap.Heap
	RT   *offheap.Runtime // nil for untransformed programs
	// Locks backs every synchronized block, on heap objects and page
	// records alike (§3.4): built in New, rewound by ResetForReuse.
	Locks *offheap.LockPool

	out io.Writer
	inj *faults.Injector // the injector the VM was built with (may be nil)

	// Dispatch tables: selectors index per-class vtables.
	selectors map[string]int
	vtables   [][]*ir.Func
	byKey     map[string]*ir.Func

	// Static fields.
	statics     []Value
	staticTypes []*lang.Type

	// String literal cache, indexed by string pool index; entries are heap
	// addresses (P) or page references (P').
	strMu    sync.Mutex
	strCache []Value
	strDone  []bool
	strField *lang.Field // String.value
	strClass *lang.Class

	// Facade machinery (transformed programs only).
	facadeByName map[string]*lang.Class // facade class per original data class
	pageRefField *lang.Field            // Facade.pageRef
	bounds       map[int]int            // facade class ID -> pool bound
	rootScope    *offheap.PageManager   // allocation scope for literals/globals

	// Handles: Go-side roots for framework code.
	handles handleTable

	// Threads registry for root scanning, and the register stacks of
	// closed threads, kept across ResetForReuse for the next ones.
	threadsMu   sync.Mutex
	threads     map[*Thread]struct{}
	nextTID     int
	spareStacks [][]Value

	rngMu sync.Mutex
	rngSt uint64
	outMu sync.Mutex

	// Observability: one registry shared by the heap, the page store, and
	// the interpreter's own execution counters. Threads accumulate
	// locally and flush into these on returning to the boundary.
	obs       *obs.Registry
	cInstr    *obs.Counter // IR instructions executed
	cBoundary *obs.Counter // control-path -> data-path boundary crossings
	cPoolHits *obs.Counter // facade pool accesses (resolve/pool-get/recv-pool)

	// cancel, when non-nil, aborts interpretation: every thread polls it
	// at the same sites the GC safepoint is polled (calls and backward
	// control-flow edges), so an idle VM pays a nil pointer load per poll.
	cancel atomic.Pointer[error]
}

// New creates a VM for prog and links dispatch tables.
func New(prog *ir.Program, cfg Config) (*VM, error) {
	job := ResetConfig{
		Out: cfg.Out, RandSeed: cfg.RandSeed, Obs: cfg.Obs, Faults: cfg.Faults,
		Tiering: cfg.Tiering,
	}
	if job.Obs == nil {
		job.Obs = obs.NewRegistry()
	}
	vm := &VM{
		Prog:      prog,
		byKey:     make(map[string]*ir.Func),
		threads:   make(map[*Thread]struct{}),
		selectors: make(map[string]int),
		Locks:     offheap.NewLockPool(),
	}
	if err := vm.link(); err != nil {
		return nil, err
	}
	vm.Heap = heap.New(heap.Config{
		HeapSize:  cfg.HeapSize,
		GCWorkers: cfg.GCWorkers,
		Obs:       job.Obs,
		Faults:    job.Faults,
	}, prog.H, prog.ArrayTypes)
	if prog.Transformed {
		vm.RT = offheap.NewRuntime(job.Obs)
		if job.Faults != nil {
			vm.RT.SetFaultInjector(job.Faults)
		}
	}
	if err := vm.arm(job); err != nil {
		return nil, err
	}
	vm.Heap.AddRoots(heap.RootFunc(vm.visitRoots))
	return vm, nil
}

// arm installs one job's settings on a VM whose heap and page store are
// fresh or just reset and already bound to job.Obs (non-nil): counters,
// output sink, injector, Sys.rand seed, and — on a transformed program —
// the disk tier and the root scope. New and ResetForReuse both arm through
// here, so a reused VM cannot keep what a fresh one would not have.
func (vm *VM) arm(job ResetConfig) error {
	vm.obs = job.Obs
	vm.cInstr = job.Obs.Counter(obs.CtrInstructions)
	vm.cBoundary = job.Obs.Counter(obs.CtrBoundaryCalls)
	vm.cPoolHits = job.Obs.Counter(obs.CtrFacadePoolHits)
	out := job.Out
	if out == nil {
		out = io.Discard
	}
	vm.outMu.Lock()
	vm.out = out
	vm.outMu.Unlock()
	vm.inj = job.Faults
	vm.rngMu.Lock()
	vm.rngSt = uint64(job.RandSeed)*2862933555777941757 + 3037000493
	vm.rngMu.Unlock()
	if vm.RT == nil {
		return nil
	}
	if job.Tiering != nil {
		if err := vm.RT.EnableTiering(*job.Tiering); err != nil {
			return err
		}
	}
	vm.rootScope = vm.RT.NewManager(nil, -2, -1)
	return nil
}

// link builds vtables and the statics area and, the first time a VM is
// built over the program, lowers it to its execution form and fixes its
// array type table, which the heap and the page store are built over.
func (vm *VM) link() error {
	h := vm.Prog.H
	// Selector assignment: one slot per distinct instance method name.
	names := make([]string, 0)
	seen := make(map[string]bool)
	for _, c := range h.ClassList {
		for n, m := range c.Methods {
			if !m.Static && !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)
	for i, n := range names {
		vm.selectors[n] = i
	}
	vm.vtables = make([][]*ir.Func, len(h.ClassList))
	for _, f := range vm.Prog.FuncList {
		vm.byKey[f.Name] = f
	}
	for _, c := range h.ClassList {
		vt := make([]*ir.Func, len(names))
		if c.Super != nil {
			copy(vt, vm.vtables[c.Super.ID])
		}
		for n, m := range c.Methods {
			if m.Static {
				continue
			}
			f := vm.byKey[ir.FuncKey(c.Name, n)]
			if f == nil {
				return fmt.Errorf("vm: missing body for %s.%s", c.Name, n)
			}
			vt[vm.selectors[n]] = f
		}
		vm.vtables[c.ID] = vt
	}

	// Statics.
	vm.statics = make([]Value, h.NumStatics)
	vm.staticTypes = make([]*lang.Type, h.NumStatics)
	for _, c := range h.ClassList {
		for _, f := range c.Statics {
			vm.staticTypes[f.StaticIndex] = f.Type
		}
	}

	// Strings.
	vm.strCache = make([]Value, len(vm.Prog.StringPool))
	vm.strDone = make([]bool, len(vm.Prog.StringPool))
	if sc := h.Class("String"); sc != nil {
		vm.strClass = sc
		vm.strField = sc.FindField("value")
		if vm.strField == nil {
			return fmt.Errorf("vm: String class has no value field")
		}
	}

	// Facade metadata. Record sizes are compile-time constants carried on
	// the allocation instructions (the paper's D_Record_size), so the VM
	// needs only the facade classes and pool bounds here.
	if vm.Prog.Transformed {
		vm.facadeByName = make(map[string]*lang.Class)
		vm.bounds = make(map[int]int)
		fb := h.Class("Facade")
		if fb == nil {
			return fmt.Errorf("vm: transformed program lacks Facade class")
		}
		vm.pageRefField = fb.FindField("pageRef")
		if vm.pageRefField == nil {
			return fmt.Errorf("vm: Facade class lacks pageRef field")
		}
		for orig, bound := range vm.Prog.Bounds {
			fc := h.Class(ir.FacadeName(orig))
			if fc == nil {
				return fmt.Errorf("vm: missing facade class for %s", orig)
			}
			vm.facadeByName[orig] = fc
			vm.bounds[fc.ID] = bound
		}
	}

	// The execution form: built once per program, shared by every VM over it.
	return vm.Prog.LinkInstrs(vm.lowerProgram)
}

func calleeKey(m *lang.Method) string {
	if m.IsCtor {
		return ir.CtorKey(m.Owner.Name)
	}
	return ir.FuncKey(m.Owner.Name, m.Name)
}

// Func returns the function with the given key, or nil.
func (vm *VM) Func(key string) *ir.Func { return vm.byKey[key] }

// method returns the function that runs name on an object of class c: c's
// own, or the nearest superclass's; nil if none has one.
func (vm *VM) method(c *lang.Class, name string) *ir.Func {
	for ; c != nil; c = c.Super {
		if f := vm.byKey[ir.FuncKey(c.Name, name)]; f != nil {
			return f
		}
	}
	return nil
}

// Out returns the VM's output writer.
func (vm *VM) Out() io.Writer { return vm.out }

// Obs returns the VM's observability registry, shared with the heap and
// (for transformed programs) the page store.
func (vm *VM) Obs() *obs.Registry { return vm.obs }

// visitRoots walks every root slot: statics, string cache, handles, and
// each thread's facade pools and frame registers. Runs with the world
// stopped.
func (vm *VM) visitRoots(visit func(heap.Addr) heap.Addr) {
	for i, t := range vm.staticTypes {
		if t != nil && t.IsRef() {
			vm.statics[i] = Value(visit(heap.Addr(vm.statics[i])))
		}
	}
	if !vm.Prog.Transformed {
		for i, done := range vm.strDone {
			if done {
				vm.strCache[i] = Value(visit(heap.Addr(vm.strCache[i])))
			}
		}
	}
	vm.handles.visit(visit)
	vm.threadsMu.Lock()
	threads := make([]*Thread, 0, len(vm.threads))
	for t := range vm.threads {
		threads = append(threads, t)
	}
	vm.threadsMu.Unlock()
	for _, t := range threads {
		t.visitRoots(visit)
	}
}

// Injector returns the fault injector the VM was constructed with (nil
// when injection is disabled), so engines driving the VM can plan
// injected failures — e.g. worker crashes — from the same seed.
func (vm *VM) Injector() *faults.Injector { return vm.inj }

// Cancel aborts interpretation on every thread of this VM: the next
// safepoint poll (calls and loop back-edges) unwinds to the Call boundary
// returning err. Cancellation is cooperative — a thread parked in Go code
// (monitor wait, framework I/O) notices when it next executes IR. A nil
// err clears a pending cancellation.
func (vm *VM) Cancel(err error) {
	if err == nil {
		vm.cancel.Store(nil)
		return
	}
	vm.cancel.Store(&err)
}

// Canceled returns the pending cancellation error, or nil.
func (vm *VM) Canceled() error {
	if p := vm.cancel.Load(); p != nil {
		return *p
	}
	return nil
}

// ResetConfig re-arms a VM for its next job (ResetForReuse).
type ResetConfig struct {
	// Out receives Sys.print output; defaults to io.Discard.
	Out io.Writer
	// RandSeed re-seeds the deterministic Sys.rand source.
	RandSeed int64
	// Obs receives the next job's instruments; a fresh private registry
	// is created when nil.
	Obs *obs.Registry
	// Faults installs the next job's fault injector (nil disables).
	Faults *faults.Injector
	// Tiering attaches a disk tier to the page store for the next job
	// (see Config.Tiering); nil leaves the store DRAM-only. The previous
	// job's tier was torn down by the store reset either way.
	Tiering *offheap.TierConfig
}

// ResetForReuse returns the VM to its post-New state so a daemon can run
// another job on it without rebuilding the expensive parts: the heap arena,
// the linked dispatch tables, the facade metadata and §3.3 pool bounds, the
// page store's recycled-page pool and the built pool locks all stay warm,
// while every piece of job state — statics, string literals, handles, the
// lock pool's peak, the random stream, thread and iteration ID counters,
// heap contents, live pages — rewinds to its initial value. The reset is
// observable-state complete: a run on a reused VM is bit-identical to the
// same run on a fresh VM.
//
// All threads must have been closed first; a job that leaked a thread, a
// page or a pool lock (it trapped inside synchronized) fails the reset, in
// which case the caller must discard the VM and rebuild (this is how the
// daemon keeps a crashed tenant job from poisoning the warm pool).
func (vm *VM) ResetForReuse(cfg ResetConfig) error {
	if err := vm.Release(); err != nil {
		return err
	}
	if err := vm.Locks.Reset(); err != nil {
		return err
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	if err := vm.Heap.Reset(cfg.Obs, cfg.Faults); err != nil {
		return err
	}
	if vm.RT != nil {
		if err := vm.RT.Reset(cfg.Obs, cfg.Faults); err != nil {
			return err
		}
	}
	if err := vm.arm(cfg); err != nil {
		return err
	}
	for i := range vm.statics {
		vm.statics[i] = 0
	}
	vm.strMu.Lock()
	for i := range vm.strCache {
		vm.strCache[i] = 0
		vm.strDone[i] = false
	}
	vm.strMu.Unlock()
	vm.handles.reset()
	vm.threadsMu.Lock()
	vm.nextTID = 0
	vm.threadsMu.Unlock()
	vm.cancel.Store(nil)
	return nil
}

// Release frees what a finished job left outside the Go heap once every
// thread is closed: the root scope's records and the page store's disk
// tier, spill file included. Read the store's Stats first: without a tier
// it reports no tier counts (the obs registry keeps them). ResetForReuse
// re-arms a released VM for another job.
func (vm *VM) Release() error {
	vm.threadsMu.Lock()
	live := len(vm.threads)
	vm.threadsMu.Unlock()
	if live != 0 {
		return fmt.Errorf("vm: %w with %d live thread(s)", faults.ErrNotReusable, live)
	}
	if vm.RT == nil {
		return nil
	}
	vm.rootScope.ReleaseAll()
	if err := vm.RT.CloseTier(); err != nil {
		return fmt.Errorf("vm: %w: %w", faults.ErrNotReusable, err)
	}
	return nil
}

// RandState returns the current Sys.rand cursor. Together with
// SetRandState it lets engines checkpoint the VM's deterministic random
// stream, so a crash-replayed computation that draws random numbers
// (GPS RandomWalk) is bit-identical to the fault-free run, not merely
// statistically equivalent.
func (vm *VM) RandState() uint64 {
	vm.rngMu.Lock()
	defer vm.rngMu.Unlock()
	return vm.rngSt
}

// SetRandState restores a Sys.rand cursor captured by RandState.
func (vm *VM) SetRandState(s uint64) {
	vm.rngMu.Lock()
	vm.rngSt = s
	vm.rngMu.Unlock()
}

// rand returns the next deterministic pseudo-random value (splitmix64).
func (vm *VM) rand() uint64 {
	vm.rngMu.Lock()
	vm.rngSt += 0x9e3779b97f4a7c15
	z := vm.rngSt
	vm.rngMu.Unlock()
	return faults.Mix64(z)
}

// handleTable stores Go-side references into the heap so framework code
// can hold objects across collections (the moral equivalent of JNI global
// references).
type handleTable struct {
	mu    sync.Mutex
	vals  []Value
	isRef []bool
	free  []int
}

// Handle names a slot in the VM handle table.
type Handle int

// NewHandle registers v; isRef marks managed heap references (traced and
// updated by the collector). Page references pass isRef=false.
func (vm *VM) NewHandle(v Value, isRef bool) Handle {
	ht := &vm.handles
	ht.mu.Lock()
	defer ht.mu.Unlock()
	if n := len(ht.free); n > 0 {
		i := ht.free[n-1]
		ht.free = ht.free[:n-1]
		ht.vals[i] = v
		ht.isRef[i] = isRef
		return Handle(i)
	}
	ht.vals = append(ht.vals, v)
	ht.isRef = append(ht.isRef, isRef)
	return Handle(len(ht.vals) - 1)
}

// Get returns the current value of h.
func (vm *VM) Get(h Handle) Value {
	ht := &vm.handles
	ht.mu.Lock()
	defer ht.mu.Unlock()
	return ht.vals[h]
}

// Drop releases h.
func (vm *VM) Drop(h Handle) {
	ht := &vm.handles
	ht.mu.Lock()
	defer ht.mu.Unlock()
	ht.vals[h] = 0
	ht.isRef[h] = false
	ht.free = append(ht.free, int(h))
}

// reset empties the table (VM reuse between jobs).
func (ht *handleTable) reset() {
	ht.mu.Lock()
	ht.vals = nil
	ht.isRef = nil
	ht.free = nil
	ht.mu.Unlock()
}

func (ht *handleTable) visit(visit func(heap.Addr) heap.Addr) {
	ht.mu.Lock()
	defer ht.mu.Unlock()
	for i, r := range ht.isRef {
		if r {
			ht.vals[i] = Value(visit(heap.Addr(ht.vals[i])))
		}
	}
}
