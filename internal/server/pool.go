package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/facade"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/vm"
)

// progKey identifies a compiled (and possibly transformed) program by its
// inputs, so two jobs submitting identical sources share one *ir.Program —
// the pointer identity facade.WithReusedVM keys on.
type progKey string

func programKey(req *SubmitRequest) progKey {
	h := sha256.New()
	names := make([]string, 0, len(req.Sources))
	for n := range req.Sources {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(h, "%s\x00%d\x00%s\x00", n, len(req.Sources[n]), req.Sources[n])
	}
	fmt.Fprintf(h, "transform=%v\x00", req.Transform)
	for _, c := range req.DataClasses {
		fmt.Fprintf(h, "data=%s\x00", c)
	}
	return progKey(hex.EncodeToString(h.Sum(nil)))
}

// progCache compiles each distinct source set once and reuses the
// resulting *ir.Program for every later job, concurrent compiles of the
// same key collapsing into one. Bounded: past progCacheCap entries, the
// least recently used program is evicted so a daemon serving many distinct
// source sets does not retain them all forever.
type progCache struct {
	mu      sync.Mutex
	tick    int64
	entries map[progKey]*progEntry
}

const progCacheCap = 32

type progEntry struct {
	once sync.Once
	prog *ir.Program
	err  error
	last int64 // recency stamp, guarded by progCache.mu
}

func newProgCache() *progCache {
	return &progCache{entries: make(map[progKey]*progEntry)}
}

func (pc *progCache) get(key progKey, build func() (*ir.Program, error)) (*ir.Program, error) {
	pc.mu.Lock()
	e, ok := pc.entries[key]
	if !ok {
		e = &progEntry{}
		pc.entries[key] = e
	}
	pc.tick++
	e.last = pc.tick
	if len(pc.entries) > progCacheCap {
		pc.evictLRULocked()
	}
	pc.mu.Unlock()
	// An evicted entry still completes its build for the goroutines
	// holding it; the result just is not cached for later jobs.
	e.once.Do(func() { e.prog, e.err = build() })
	return e.prog, e.err
}

// evictLRULocked removes the least recently used entry — never the one
// just stamped, which carries the highest tick. Caller holds pc.mu.
func (pc *progCache) evictLRULocked() {
	var victim progKey
	oldest := pc.tick
	for k, e := range pc.entries {
		if e.last < oldest {
			oldest, victim = e.last, k
		}
	}
	delete(pc.entries, victim)
}

// compileRequest builds the program a submit request describes
// (facade.Build): P, or P' when the FACADE transform is requested, using
// explicit data classes or in-source directives.
func compileRequest(req *SubmitRequest) (*ir.Program, error) {
	if !req.Transform {
		prog, _, err := facade.Build(req.Sources, nil)
		return prog, err
	}
	data := req.DataClasses
	if len(data) == 0 {
		for _, src := range req.Sources {
			data = append(data, facade.DataClassesDirective(src)...)
		}
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("transform requested but no data classes given and no facadec directive found")
	}
	_, p2, err := facade.Build(req.Sources, data)
	return p2, err
}

// vmKey identifies a warm-pool bucket: a VM is only reusable for runs of
// the same program at the same heap size.
type vmKey struct {
	prog progKey
	heap int
}

// warmPool keeps reset-verified VMs for reuse. Entries are verified at
// put time: a VM that fails ResetForReuse (leaked threads, live pages, a
// pool lock held — the signature of a job that crashed mid-iteration or
// trapped inside synchronized) is dropped and counted as a pool rebuild
// instead of poisoning later jobs. At capacity, put evicts the least
// recently returned VM, so the programs a daemon ran last stay warm.
type warmPool struct {
	mu      sync.Mutex
	tick    int64
	entries map[vmKey][]pooledVM // each bucket in put order
	size    int
	cap     int

	hits     *obs.Counter
	misses   *obs.Counter
	rebuilds *obs.Counter
	gauge    *obs.Gauge
}

// pooledVM is a pooled VM and the recency stamp of the put that stored it.
type pooledVM struct {
	m    *vm.VM
	last int64
}

func newWarmPool(capacity int, reg *obs.Registry) *warmPool {
	return &warmPool{
		entries:  make(map[vmKey][]pooledVM),
		cap:      capacity,
		hits:     reg.Counter(obs.CtrServerWarmHits),
		misses:   reg.Counter(obs.CtrServerWarmMisses),
		rebuilds: reg.Counter(obs.CtrServerPoolDrops),
		gauge:    reg.Gauge(obs.GaugeServerWarmPool),
	}
}

// take pops a warm VM for the given program and heap size, or returns nil
// on a miss.
func (wp *warmPool) take(key vmKey) *vm.VM {
	wp.mu.Lock()
	defer wp.mu.Unlock()
	vs := wp.entries[key]
	if len(vs) == 0 {
		wp.misses.Add(1)
		return nil
	}
	m := wp.removeLocked(key, len(vs)-1)
	wp.gauge.Set(int64(wp.size))
	wp.hits.Add(1)
	return m
}

// put verifies a VM is safe to reuse and returns it to the pool. The
// verification is a full ResetForReuse: it fails exactly when the VM
// still has registered threads, live off-heap pages or a pool lock in use
// — the state a mid-run crash or a trap inside synchronized can leave
// behind — and such VMs are discarded (counted under
// server.pool_rebuilds) rather than stored.
func (wp *warmPool) put(key vmKey, m *vm.VM) {
	if m == nil {
		return
	}
	if err := m.ResetForReuse(vm.ResetConfig{Out: io.Discard, RandSeed: 1}); err != nil {
		wp.rebuilds.Add(1)
		return
	}
	wp.mu.Lock()
	defer wp.mu.Unlock()
	if wp.cap <= 0 {
		return
	}
	if wp.size >= wp.cap {
		wp.evictLRULocked()
	}
	wp.tick++
	wp.entries[key] = append(wp.entries[key], pooledVM{m, wp.tick})
	wp.size++
	wp.gauge.Set(int64(wp.size))
}

// evictLRULocked drops the least recently returned VM: the oldest head of
// the put-ordered buckets. Caller holds wp.mu and the pool is not empty.
func (wp *warmPool) evictLRULocked() {
	var victim vmKey
	oldest := wp.tick + 1
	for k, vs := range wp.entries {
		if vs[0].last < oldest {
			oldest, victim = vs[0].last, k
		}
	}
	wp.removeLocked(victim, 0)
}

// removeLocked takes the i-th VM, the first or the last, out of key's
// bucket and returns it. The vacated slot is cleared, because a VM the
// pool still points at is never collected, and a VM's regions return
// only when it is (internal/region). An emptied bucket is deleted, so no
// bucket in entries is empty. Caller holds wp.mu.
func (wp *warmPool) removeLocked(key vmKey, i int) *vm.VM {
	vs := wp.entries[key]
	m := vs[i].m
	vs[i] = pooledVM{}
	switch {
	case len(vs) == 1:
		delete(wp.entries, key)
	case i == 0:
		wp.entries[key] = vs[1:]
	default:
		wp.entries[key] = vs[:i]
	}
	wp.size--
	return m
}

// drop discards a taken VM that turned out to be unusable (e.g. its
// program was evicted from the cache and recompiled, so the pointer
// identity WithReusedVM requires no longer holds), counting it as a pool
// rebuild.
func (wp *warmPool) drop() { wp.rebuilds.Add(1) }

// len reports the number of pooled VMs.
func (wp *warmPool) len() int {
	wp.mu.Lock()
	defer wp.mu.Unlock()
	return wp.size
}
