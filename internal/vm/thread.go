package vm

import (
	"fmt"
	"sync"

	"repro/internal/heap"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/offheap"
)

// frame is one interpreter activation record. Frames are stored by value
// in the thread's frame stack so that pushing one is a slice append into
// already-reserved capacity rather than a heap allocation per interpreted
// call.
type frame struct {
	fn   *ir.Func
	regs []Value
}

// poolEntry is the per-thread facade pool for one facade class: a bounded
// parameter pool and a single receiver facade (§3.3), all ordinary heap
// objects.
type poolEntry struct {
	params []Value
	recv   Value
}

// Thread is a VM execution thread. Framework code obtains one per worker
// goroutine; the thread starts "external" (not blocking collections) and
// enters the mutator state for the duration of each Call.
//
// Every field sits between two cache-line-pair pads. run writes instrs on
// every control edge and poolHits on every facade resolution, callFn writes
// sp and frames on every call, and the rest is read just as often; Go
// cannot align a heap object, but with 128 bytes on each side no
// 128-byte-aligned line pair holding a field reaches another object. Two
// worker threads allocated back to back otherwise wrote one line pair on
// every back edge (docs/PERFORMANCE.md, "Parallel load").
type Thread struct {
	_ [cacheLinePair]byte

	// Execution counters accumulated without atomics on the hot path and
	// flushed to the VM's shared registry when the outermost frame pops.
	instrs   int64
	poolHits int64

	frames []frame

	// stack backs frame register windows (LIFO); frames that overflow it
	// fall back to fresh slices.
	stack []Value
	sp    int

	vm *VM
	tc *heap.ThreadCtx
	id int

	// Transformed programs: per-thread page-manager scope and facade
	// pools indexed by facade class ID.
	iter  *offheap.IterScope
	pools []*poolEntry

	// FacadeCount is the number of facade objects this thread allocated
	// at pool initialization (the paper's per-thread facade census).
	FacadeCount int

	_ [cacheLinePair]byte
}

// cacheLinePair is the span false sharing reaches: a 64-byte line plus the
// adjacent one the spatial prefetcher fetches with it.
const cacheLinePair = 128

// NewThread registers a new VM thread. parent (may be nil) supplies the
// page-manager parent for transformed programs: a thread's default manager
// is a child of the manager current in the creating thread (§3.6).
func (vm *VM) NewThread(parent *Thread) (*Thread, error) {
	t := &Thread{vm: vm, tc: vm.Heap.RegisterThread()}
	vm.threadsMu.Lock()
	t.id = vm.nextTID
	vm.nextTID++
	vm.threads[t] = struct{}{}
	vm.threadsMu.Unlock()
	if vm.Prog.Transformed {
		var pm *offheap.PageManager
		if parent != nil {
			pm = parent.iter.Current()
		} else {
			pm = vm.rootScope
		}
		t.iter = vm.RT.NewIterScope(pm, t.id)
		if err := t.initPools(); err != nil {
			t.Close()
			return nil, err
		}
	}
	return t, nil
}

// initPools populates the thread's facade pools: for each data type, a
// parameter pool of the statically computed bound plus one receiver
// facade — the Pools.init of §3.3, invoked upon thread creation.
func (t *Thread) initPools() error {
	vm := t.vm
	t.pools = make([]*poolEntry, len(vm.Prog.H.ClassList))
	t.tc.EndExternal()
	defer t.tc.BeginExternal()
	for fcID, bound := range vm.bounds {
		fc := vm.Prog.H.ClassList[fcID]
		pe := &poolEntry{params: make([]Value, bound)}
		for i := 0; i < bound; i++ {
			a, err := vm.Heap.AllocObject(t.tc, fc, 0)
			if err != nil {
				return err
			}
			pe.params[i] = Value(a)
		}
		a, err := vm.Heap.AllocObject(t.tc, fc, 0)
		if err != nil {
			return err
		}
		pe.recv = Value(a)
		t.FacadeCount += bound + 1
		t.pools[fcID] = pe
	}
	return nil
}

// Close unregisters the thread, releases its default page manager and
// hands its register stack to the VM for the next thread. The stack is
// handed over once, however often Close is called.
func (t *Thread) Close() {
	if t.iter != nil {
		t.iter.Close()
	}
	vm := t.vm
	vm.threadsMu.Lock()
	delete(vm.threads, t)
	if t.stack != nil {
		vm.spareStacks = append(vm.spareStacks, t.stack)
		t.stack = nil
	}
	vm.threadsMu.Unlock()
	vm.Heap.UnregisterThread(t.tc)
}

// visitRoots scans the thread's frame registers and facade pools. Runs
// with the world stopped.
func (t *Thread) visitRoots(visit func(heap.Addr) heap.Addr) {
	for fi := range t.frames {
		fr := &t.frames[fi]
		for i, rt := range fr.fn.RegTypes {
			if rt.IsRef() {
				fr.regs[i] = Value(visit(heap.Addr(fr.regs[i])))
			}
		}
	}
	for _, pe := range t.pools {
		if pe == nil {
			continue
		}
		for i := range pe.params {
			pe.params[i] = Value(visit(heap.Addr(pe.params[i])))
		}
		pe.recv = Value(visit(heap.Addr(pe.recv)))
	}
}

// IterationStart marks the beginning of a (sub-)iteration of the data
// path. For untransformed programs this is a no-op; for transformed
// programs it opens a child page manager (§3.6).
func (t *Thread) IterationStart() {
	if t.iter != nil {
		t.iter.IterationStart()
	}
}

// IterationEnd ends the innermost iteration, bulk-releasing its pages.
func (t *Thread) IterationEnd() {
	if t.iter != nil {
		t.iter.IterationEnd()
	}
}

// stackSize is the per-thread register window arena (values).
const stackSize = 16 << 10

// allocRegs carves a zeroed register window from the thread stack,
// falling back to a fresh slice on overflow. The second result reports
// whether the window came from the stack. exec gives the thread its stack,
// so this calls nothing and stays small enough to inline into callFn.
func (t *Thread) allocRegs(n int) ([]Value, bool) {
	if t.sp+n > len(t.stack) {
		return make([]Value, n), false
	}
	s := t.stack[t.sp : t.sp+n : t.sp+n]
	for i := range s {
		s[i] = 0
	}
	t.sp += n
	return s, true
}

// takeStack returns a closed thread's register stack, or a new one when
// none is spare. A reused stack keeps its old values: allocRegs zeroes each
// window it carves.
func (vm *VM) takeStack() []Value {
	vm.threadsMu.Lock()
	defer vm.threadsMu.Unlock()
	n := len(vm.spareStacks)
	if n == 0 {
		return make([]Value, stackSize)
	}
	s := vm.spareStacks[n-1]
	vm.spareStacks = vm.spareStacks[:n-1]
	return s
}

func (t *Thread) freeRegs(n int, onStack bool) {
	if onStack {
		t.sp -= n
	}
}

// enterBoundary crosses from framework (Go) code into interpreted code:
// it counts the boundary crossing and re-enters the mutator state. Every
// framework entry point that runs IR or touches records calls this
// instead of EndExternal directly.
func (t *Thread) enterBoundary() {
	t.vm.cBoundary.Inc()
	t.tc.EndExternal()
}

// flushObsCounters publishes the thread-local execution counters to the
// shared registry. Called when the outermost interpreter frame returns,
// so hot loops never touch an atomic.
func (t *Thread) flushObsCounters() {
	if t.instrs != 0 {
		t.vm.cInstr.Add(t.instrs)
		t.instrs = 0
	}
	if t.poolHits != 0 {
		t.vm.cPoolHits.Add(t.poolHits)
		t.poolHits = 0
	}
}

// Call executes the function with the given key. The caller supplies raw
// argument values matching the function's parameter registers (for
// instance methods, the receiver first). The thread enters the mutator
// state for the duration of the call.
func (t *Thread) Call(key string, args ...Value) (Value, error) {
	fn := t.vm.byKey[key]
	if fn == nil {
		return 0, fmt.Errorf("vm: no function %s", key)
	}
	t.enterBoundary()
	defer t.tc.BeginExternal()
	return t.exec(fn, args)
}

// ---------------------------------------------------------------------------
// Monitors for heap objects (program P's intrinsic locks). The object's
// lock word holds a monitor ID; monitors are reentrant.

type monitor struct {
	mu    sync.Mutex
	cond  *sync.Cond
	owner *Thread
	depth int
}

func (t *Thread) monitorFor(obj heap.Addr) *monitor {
	vm := t.vm
	vm.monMu.Lock()
	id := vm.Heap.GetLock(obj)
	if id == 0 {
		vm.nextMonID++
		id = vm.nextMonID
		m := &monitor{}
		m.cond = sync.NewCond(&m.mu)
		vm.monitors[id] = m
		vm.Heap.SetLock(obj, id)
	}
	m := vm.monitors[id]
	vm.monMu.Unlock()
	return m
}

func (t *Thread) monEnter(obj heap.Addr) error {
	if obj == 0 {
		return fmt.Errorf("NullPointerException: synchronized on null")
	}
	m := t.monitorFor(obj)
	m.mu.Lock()
	for m.owner != nil && m.owner != t {
		t.tc.BeginExternal()
		m.cond.Wait()
		m.mu.Unlock()
		t.tc.EndExternal()
		m.mu.Lock()
	}
	m.owner = t
	m.depth++
	m.mu.Unlock()
	return nil
}

func (t *Thread) monExit(obj heap.Addr) error {
	if obj == 0 {
		return fmt.Errorf("NullPointerException: monitor exit on null")
	}
	vm := t.vm
	vm.monMu.Lock()
	id := vm.Heap.GetLock(obj)
	m := vm.monitors[id]
	vm.monMu.Unlock()
	if m == nil {
		return fmt.Errorf("IllegalMonitorStateException: exit without enter")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.owner != t {
		return fmt.Errorf("IllegalMonitorStateException: exit by non-owner")
	}
	m.depth--
	if m.depth == 0 {
		m.owner = nil
		m.cond.Broadcast()
	}
	return nil
}

// parker adapts the thread to offheap.Parker: lock-pool waits park it, and
// the disk spills it starts run while the heap has every other thread
// parked, under the same stop the collector uses.
type parker struct{ t *Thread }

func (p parker) BeginExternal()        { p.t.tc.BeginExternal() }
func (p parker) EndExternal()          { p.t.tc.EndExternal() }
func (p parker) StopTheWorld(f func()) { p.t.vm.Heap.StopTheWorld(p.t.tc, f) }

// facadeOf returns the facade class registered for an original data class
// name.
func (vm *VM) facadeOf(name string) *lang.Class { return vm.facadeByName[name] }
