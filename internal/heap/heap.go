// Package heap implements the managed heap the FJ VM allocates objects in,
// together with a stop-the-world generational tracing garbage collector.
// It stands in for the JVM heap in the paper's evaluation: program P's data
// objects live here and are traced by the collector, while program P' keeps
// only control objects and facades here and stores data in the off-heap
// page arena (internal/offheap), which this collector never scans.
//
// # Layout
//
// The heap is one contiguous byte arena addressed by 32-bit offsets
// (Addr); address 0 is null. The arena and the mark bitmap are one region
// (internal/region): memory Go neither zeroes nor scans, returned to the
// region source once the heap is unreachable. The low part of
// the arena is the old generation, the high part is the nursery (young
// generation). Objects are allocated in the nursery through per-thread
// TLABs; a minor collection evacuates live nursery objects into the old
// generation (promotion on first survival); a full collection marks both
// generations and slides the old generation (Lisp-2 compaction). Both run
// on every GC worker (gc.go).
//
// Neither generation is address-walkable: the collector finds objects
// through references and the mark bitmap only, so the gaps that promotion
// buffers leave in the old generation are never read.
//
// Object layout mirrors a 64-bit HotSpot-style JVM, which is what gives
// program P its per-object overhead (§2.4 of the paper):
//
//	scalar object:  [type word][gc word][lock word]            = 12-byte header
//	array object:   [type word][gc word][lock word][length]    = 16-byte header
//
// followed by the field/element body laid out per lang.Class offsets —
// the same offsets the off-heap page records use, which is what makes the
// synthesized conversion functions straight memory copies.
//
// Bytes is the access path: it resolves an address to the object's bytes
// from the header on, and the caller adds the header size its operation
// implies (ScalarHeader for a field, ArrayHeader for an element) — the same
// discipline offheap.Runtime.Bytes gives page records. A reference store is
// the slot write followed by Barrier.
package heap

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/faults"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/region"
)

// Addr is a heap address: a byte offset into the arena. 0 is null.
type Addr = uint32

// Header field offsets and sizes.
const (
	hdrType = 0 // u32: class ID, or array bit | array type index
	hdrGC   = 4 // u32: mark/forwarding word
	hdrLock = 8 // u32: lock word

	// ScalarHeader and ArrayHeader are the managed object header sizes the
	// paper's space-overhead argument is built on (12 and 16 bytes).
	ScalarHeader = 12
	ArrayHeader  = 16

	arrayBit uint32 = 1 << 31
)

// ErrOutOfMemory is reported when an allocation cannot be satisfied even
// after a full collection. It models the JVM's OutOfMemoryError that makes
// program P fail on large datasets (Table 3: "OME(n)").
var ErrOutOfMemory = fmt.Errorf("OutOfMemoryError: managed heap exhausted")

// Config sizes the heap.
type Config struct {
	// HeapSize is the maximum heap size in bytes (the -Xmx of the run).
	HeapSize int
	// GCWorkers is the number of workers every collection runs on: the
	// scavenge, the mark and the compaction (the paper's runs use
	// HotSpot's parallel collector). Defaults to min(GOMAXPROCS, 4); 1
	// runs the whole collector inline on the collecting thread.
	GCWorkers int
	// Obs receives the heap's observability instruments (pause and
	// allocation-size histograms, promotion counters). A fresh private
	// registry is created when nil.
	Obs *obs.Registry
	// Faults, when non-nil, is consulted on every slow-path allocation:
	// a firing faults.HeapAlloc point fails the allocation with
	// ErrOutOfMemory ahead of true exhaustion (deterministic OOM
	// injection for robustness tests).
	Faults *faults.Injector
}

// Stats is a snapshot of allocation and collection counters. It is
// facade.HeapStats: the JSON tags are part of the facade.run/v1 and
// facade.job/v1 schemas.
type Stats struct {
	AllocBytes   int64         `json:"alloc_bytes"`   // total bytes ever allocated
	AllocObjects int64         `json:"alloc_objects"` // total objects ever allocated
	MinorGCs     int64         `json:"minor_gcs"`
	FullGCs      int64         `json:"full_gcs"`
	GCTime       time.Duration `json:"gc_time_ns"`    // total stop-the-world collection time
	Promoted     int64         `json:"promoted"`      // objects promoted young -> old
	MarkedNodes  int64         `json:"marked_nodes"`  // objects traced across all collections
	PeakUsed     int64         `json:"peak_used"`     // high-water mark of live+garbage bytes present
	LiveAfterGC  int64         `json:"live_after_gc"` // live bytes measured at the last full GC
	HeapSize     int64         `json:"heap_size"`
}

// Heap is the managed heap. All exported methods are safe for use from
// multiple VM threads; collections stop the world via the safepoint
// protocol in safepoint.go.
type Heap struct {
	// arena and markBits are views of the one region mem holds.
	arena []byte
	mem   *region.Set

	oldBase  Addr
	oldEnd   Addr
	youngEnd Addr

	mu       sync.Mutex // guards oldPos, youngPos, remset, TLAB handout
	oldPos   Addr
	youngPos Addr

	// remset holds absolute addresses of reference slots in the old
	// generation that may point into the nursery (filled by the write
	// barrier, consumed and cleared by minor collections).
	remset map[Addr]struct{}

	h *lang.Hierarchy
	// arrTypes is the program's array type table: an array's type word
	// holds its element type's index.
	arrTypes *lang.ArrayTypes
	// classes and arrays are the layout tables the allocator and the
	// collector read, indexed by class ID and by array type index.
	classes []classLayout
	arrays  []arrayLayout

	// Static reference slots registered as roots by the VM.
	rootsMu sync.Mutex
	roots   []RootSource

	// allocCounts counts allocations per class ID, then per array type at
	// len(h.ClassList) + its index, for the paper's object-count experiment
	// (§4.1).
	allocCounts []int64

	// gcWorkers is the collector's parallelism and workers their private
	// state (gc.go); markBits is the side mark bitmap (one bit per 8 heap
	// bytes) CAS-set by concurrent markers, cleared at the start of each
	// full collection.
	gcWorkers int
	workers   []gcWorker
	markBits  []uint32
	// Working state that collections reuse: the work-sharing stack, the
	// promotion cursor, the remembered set as a slice and the full
	// collection's chunks.
	work       workStack
	promoteTop atomic.Uint32
	remSlots   []Addr
	chunks     []chunk

	// Observability instruments (internal/obs), the heap's only books:
	// Stats reads them and Reset rebinds them to the next job's registry.
	// Hot paths use the direct pointers; the registry is only consulted at
	// creation/snapshot time.
	obs            *obs.Registry
	hPause         *obs.Histogram // every collection pause, ns
	hPauseMinor    *obs.Histogram
	hPauseFull     *obs.Histogram
	hSafepointWait *obs.Histogram // mutator wait entering the VM during GC, ns
	hAllocSize     *obs.Histogram // per-allocation sizes, bytes
	cPromotedBytes *obs.Counter   // bytes evacuated young -> old
	cEvacuated     *obs.Counter   // bytes moved by full-collection compaction
	cRemsetScanned *obs.Counter   // remembered-set slots scanned by minor GCs
	cPromoted      *obs.Counter   // objects promoted young -> old
	cMarked        *obs.Counter   // objects traced across all collections
	gUsed          *obs.Gauge     // live+garbage bytes present; its high water is PeakUsed
	gLiveAfterGC   *obs.Gauge     // live bytes at the last full collection

	// Fault injection: nil when disabled, so the slow path pays one nil
	// check.
	inj        *faults.Injector
	cFaultsInj *obs.Counter

	sp safepointState
}

// RootSource enumerates GC roots. The visitor receives each root value and
// returns its (possibly moved) replacement; implementations must write the
// returned value back.
type RootSource interface {
	VisitRoots(visit func(Addr) Addr)
}

// RootFunc adapts a function to RootSource.
type RootFunc func(visit func(Addr) Addr)

// VisitRoots implements RootSource.
func (f RootFunc) VisitRoots(visit func(Addr) Addr) { f(visit) }

// New creates a heap of the configured size for a program's class
// hierarchy and array type table.
func New(cfg Config, h *lang.Hierarchy, arrTypes *lang.ArrayTypes) *Heap {
	if cfg.HeapSize < 1<<20 {
		cfg.HeapSize = 1 << 20
	}
	// The nursery is a quarter of the heap (so at least 256 KiB), at most
	// 64 MiB.
	young := cfg.HeapSize / 4
	if young > 64<<20 {
		young = 64 << 20
	}
	hp := &Heap{
		h:           h,
		arrTypes:    arrTypes,
		remset:      make(map[Addr]struct{}),
		allocCounts: make([]int64, len(h.ClassList)+arrTypes.Len()),
	}
	hp.oldBase = 8 // reserve null
	// The nursery starts on a mark-bitmap word (256 heap bytes) whatever
	// the heap size, so every nursery object is 8-aligned and the full
	// collection's bitmap walk stays inside the bitmap.
	hp.oldEnd = Addr(cfg.HeapSize-young) &^ 255
	hp.youngEnd = Addr(cfg.HeapSize)
	hp.oldPos = hp.oldBase
	hp.youngPos = hp.oldEnd
	hp.gcWorkers = cfg.GCWorkers
	if hp.gcWorkers <= 0 {
		hp.gcWorkers = runtime.GOMAXPROCS(0)
		if hp.gcWorkers > 4 {
			hp.gcWorkers = 4
		}
	}
	hp.workers = make([]gcWorker, hp.gcWorkers)
	hp.work.cond.L = &hp.work.mu
	// The arena, then the mark bitmap: one bit per 8 arena bytes.
	bitsOff, words := roundUp8(cfg.HeapSize), (cfg.HeapSize/8+31)/32
	hp.mem = region.NewSet()
	mem := hp.mem.Get(bitsOff + 4*words)
	hp.arena = mem[:cfg.HeapSize:cfg.HeapSize]
	hp.markBits = unsafe.Slice((*uint32)(unsafe.Pointer(&mem[bitsOff])), words)
	hp.bindInstruments(cfg.Obs, cfg.Faults)
	hp.buildLayouts()
	hp.sp.init()
	return hp
}

// classLayout is what the allocator and the collector need of a class.
type classLayout struct {
	size   Addr   // object size, header included, rounded up to 8
	bucket int    // the alloc-size histogram bucket of size
	refs   []Addr // reference slot offsets from the object start
}

// arrayLayout is what the allocator and the collector need of an array
// type.
type arrayLayout struct {
	elemSize Addr
	refs     bool // elements are references
}

// buildLayouts fills the layout tables from the class hierarchy and the
// array type table. Buckets are read off the alloc-size histogram; every
// registry's has the bounds obs.AllocSizeBounds, so they outlive Reset.
func (hp *Heap) buildLayouts() {
	hp.classes = make([]classLayout, len(hp.h.ClassList))
	var refs []Addr // one backing array for every class's offsets
	for id, cls := range hp.h.ClassList {
		l := &hp.classes[id]
		l.size = Addr(roundUp8(ScalarHeader + cls.BodySize))
		l.bucket = hp.hAllocSize.BucketIndex(int64(l.size))
		from := len(refs)
		for _, f := range cls.AllFields {
			if f.Type.IsRef() {
				refs = append(refs, ScalarHeader+Addr(f.Offset))
			}
		}
		l.refs = refs[from:len(refs):len(refs)]
	}
	hp.arrays = make([]arrayLayout, hp.arrTypes.Len())
	for i := range hp.arrays {
		e := hp.arrTypes.Elem(i)
		hp.arrays[i] = arrayLayout{elemSize: Addr(e.FieldSize()), refs: e.IsRef()}
	}
}

// bindInstruments points the heap's hot-path instrument pointers at reg (a
// fresh private registry when nil) and installs the fault injector. Called
// at construction and again by Reset so a reused heap reports into the new
// job's registry.
func (hp *Heap) bindInstruments(reg *obs.Registry, inj *faults.Injector) {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	hp.obs = reg
	hp.hPause = reg.Histogram(obs.HistGCPause, obs.GCPauseBounds)
	hp.hPauseMinor = reg.Histogram(obs.HistGCPauseMinor, obs.GCPauseBounds)
	hp.hPauseFull = reg.Histogram(obs.HistGCPauseFull, obs.GCPauseBounds)
	hp.hSafepointWait = reg.Histogram(obs.HistSafepointWait, obs.SafepointWaitBounds)
	hp.hAllocSize = reg.Histogram(obs.HistAllocSize, obs.AllocSizeBounds)
	hp.cPromotedBytes = reg.Counter(obs.CtrPromotedBytes)
	hp.cEvacuated = reg.Counter(obs.CtrEvacuated)
	hp.cRemsetScanned = reg.Counter(obs.CtrRemsetScanned)
	hp.cPromoted = reg.Counter(obs.CtrPromoted)
	hp.cMarked = reg.Counter(obs.CtrMarked)
	hp.gUsed = reg.Gauge(obs.GaugeHeapUsed)
	hp.gLiveAfterGC = reg.Gauge(obs.GaugeLiveAfterGC)
	hp.inj = inj
	hp.cFaultsInj = reg.Counter(obs.CtrFaultHeapAlloc)
}

// Reset returns the heap to its post-New state so a long-lived VM can be
// reused for another job without re-allocating the arena: allocation
// cursors rewind, the remembered set and the per-class allocation table
// clear, and the instruments rebind to reg, whose fresh instruments are how
// every other count rewinds. The arena and GC-worker configuration are
// retained — that is the warm state a daemon keeps between jobs. Every
// thread must have been unregistered first; Reset fails otherwise, so a
// poisoned heap (a job that leaked a thread) is rebuilt rather than
// reused.
func (hp *Heap) Reset(reg *obs.Registry, inj *faults.Injector) error {
	hp.sp.mu.Lock()
	live := len(hp.sp.threads)
	hp.sp.mu.Unlock()
	if live != 0 {
		return fmt.Errorf("heap: %w with %d registered thread(s)", faults.ErrNotReusable, live)
	}
	hp.mu.Lock()
	hp.oldPos = hp.oldBase
	hp.youngPos = hp.oldEnd
	hp.remset = make(map[Addr]struct{})
	hp.mu.Unlock()
	for i := range hp.allocCounts {
		atomic.StoreInt64(&hp.allocCounts[i], 0)
	}
	hp.bindInstruments(reg, inj)
	return nil
}

// injectAllocFault consults the fault injector; when the heap.alloc point
// fires, the allocation fails with ErrOutOfMemory (wrapped, so errors.Is
// matches and the failure rides the same rails as a true exhaustion).
func (hp *Heap) injectAllocFault() error {
	if hp.inj == nil || !hp.inj.Fire(faults.HeapAlloc) {
		return nil
	}
	n := hp.cFaultsInj.Load() + 1
	hp.cFaultsInj.Inc()
	hp.obs.Emit(obs.EvFault, string(faults.HeapAlloc), n, 0, 0)
	return fmt.Errorf("%w (%w)", ErrOutOfMemory, faults.ErrInjected)
}

// Obs returns the heap's observability registry.
func (hp *Heap) Obs() *obs.Registry { return hp.obs }

// Size returns the configured heap size in bytes.
func (hp *Heap) Size() int { return len(hp.arena) }

// Hierarchy returns the class hierarchy this heap was built for.
func (hp *Heap) Hierarchy() *lang.Hierarchy { return hp.h }

// AddRoots registers an additional root source.
func (hp *Heap) AddRoots(r RootSource) {
	hp.rootsMu.Lock()
	hp.roots = append(hp.roots, r)
	hp.rootsMu.Unlock()
}

func roundUp8(n int) int { return (n + 7) &^ 7 }

// TLAB is a thread-local allocation buffer handed out from the nursery.
type TLAB struct {
	pos, end Addr
}

const tlabSize = 32 << 10

// objSize returns the total size of the object at a, read off its header
// and the layout tables.
func (hp *Heap) objSize(a Addr) Addr {
	tw := hp.getU32(a + hdrType)
	if tw&arrayBit != 0 {
		n := int(hp.getU32(a + 12))
		return Addr(roundUp8(ArrayHeader + n*int(hp.arrays[tw&^arrayBit].elemSize)))
	}
	return hp.classes[tw].size
}

// IsArray reports whether the object at a is an array.
func (hp *Heap) IsArray(a Addr) bool {
	return hp.getU32(a+hdrType)&arrayBit != 0
}

// ClassOf returns the class of a scalar object (nil for arrays).
func (hp *Heap) ClassOf(a Addr) *lang.Class {
	tw := hp.getU32(a + hdrType)
	if tw&arrayBit != 0 {
		return nil
	}
	return hp.h.ClassList[int(tw)]
}

// ArrayElemOf returns the element type of an array object.
func (hp *Heap) ArrayElemOf(a Addr) *lang.Type {
	tw := hp.getU32(a + hdrType)
	return hp.arrTypes.Elem(int(tw &^ arrayBit))
}

// inYoung reports whether a is in the nursery.
func (hp *Heap) inYoung(a Addr) bool { return a >= hp.oldEnd }

// inOld reports whether a is a non-null old-generation address.
func (hp *Heap) inOld(a Addr) bool { return a != 0 && a < hp.oldEnd }

// AllocObject allocates a zeroed instance of cls using the thread context's
// TLAB, collecting if needed. Accounting is thread-local (noteAlloc), so
// the common path performs no atomic operation and takes no lock.
func (hp *Heap) AllocObject(tc *ThreadCtx, cls *lang.Class) (Addr, error) {
	l := &hp.classes[cls.ID]
	a, err := hp.allocRaw(tc, int(l.size))
	if err != nil {
		return 0, err
	}
	hp.setU32(a+hdrType, uint32(cls.ID))
	tc.allocCounts[cls.ID]++
	tc.noteAlloc(int64(l.size), l.bucket)
	return a, nil
}

// AllocArray allocates a zeroed array of n elements of the type at index
// arrType of the heap's array type table.
func (hp *Heap) AllocArray(tc *ThreadCtx, arrType, n int) (Addr, error) {
	if n < 0 {
		return 0, fmt.Errorf("negative array size %d", n)
	}
	size := roundUp8(ArrayHeader + n*int(hp.arrays[arrType].elemSize))
	a, err := hp.allocRaw(tc, size)
	if err != nil {
		return 0, err
	}
	hp.setU32(a+hdrType, arrayBit|uint32(arrType))
	hp.setU32(a+12, uint32(n))
	tc.allocCounts[len(hp.h.ClassList)+arrType]++
	tc.noteAlloc(int64(size), hp.hAllocSize.BucketIndex(int64(size)))
	return a, nil
}

// noteAlloc records one allocation of size bytes, which falls in the given
// bucket, in the thread-local batch of the allocation-size histogram; it
// flushes at the next boundary crossing.
func (tc *ThreadCtx) noteAlloc(size int64, bucket int) {
	tc.histCounts[bucket]++
	tc.histSum += size
	if size < tc.histMin {
		tc.histMin = size
	}
	if size > tc.histMax {
		tc.histMax = size
	}
}

// flushAllocStats publishes the thread-local allocation counters into the
// heap's shared counters. Called at boundary crossings (BeginExternal) and
// on UnregisterThread; safe to call at any time from the owning thread.
func (tc *ThreadCtx) flushAllocStats() {
	if tc.histSum == 0 { // no allocation since the last flush
		return
	}
	hp := tc.hp
	for id, c := range tc.allocCounts {
		if c != 0 {
			atomic.AddInt64(&hp.allocCounts[id], c)
			tc.allocCounts[id] = 0
		}
	}
	hp.hAllocSize.ObserveBatch(tc.histCounts, tc.histSum, tc.histMin, tc.histMax)
	for i := range tc.histCounts {
		tc.histCounts[i] = 0
	}
	tc.histSum = 0
	tc.histMin = math.MaxInt64
	tc.histMax = math.MinInt64
}

// allocRaw returns size zeroed bytes. Small allocations come from the
// thread's TLAB (an inline bump with no lock, no atomics, and no per-object
// zeroing — TLAB memory is zeroed once at handout); large ones go straight
// to the old generation.
func (hp *Heap) allocRaw(tc *ThreadCtx, size int) (Addr, error) {
	if size > tlabSize/2 {
		return hp.allocLarge(tc, size)
	}
	if a := tc.tlab.pos; a+Addr(size) <= tc.tlab.end {
		tc.tlab.pos = a + Addr(size)
		return a, nil
	}
	return hp.allocSlow(tc, size)
}

func (hp *Heap) allocSlow(tc *ThreadCtx, size int) (Addr, error) {
	if err := hp.injectAllocFault(); err != nil {
		return 0, err
	}
	for attempt := 0; ; attempt++ {
		hp.mu.Lock()
		if hp.youngPos+tlabSize <= hp.youngEnd {
			start := hp.youngPos
			hp.youngPos += tlabSize
			hp.notePeakLocked()
			hp.mu.Unlock()
			// Zero the whole TLAB once, outside the lock: the region is
			// exclusively ours, and it makes the bump path zero-free.
			hp.zero(start, tlabSize)
			tc.tlab.pos = start + Addr(size)
			tc.tlab.end = start + tlabSize
			return start, nil
		}
		hp.mu.Unlock()
		if attempt >= 2 {
			return 0, ErrOutOfMemory
		}
		if err := hp.Collect(tc, attempt > 0); err != nil {
			return 0, err
		}
	}
}

func (hp *Heap) allocLarge(tc *ThreadCtx, size int) (Addr, error) {
	if err := hp.injectAllocFault(); err != nil {
		return 0, err
	}
	for attempt := 0; ; attempt++ {
		hp.mu.Lock()
		if hp.oldPos+Addr(size) <= hp.oldEnd {
			a := hp.oldPos
			hp.oldPos += Addr(size)
			hp.notePeakLocked()
			hp.mu.Unlock()
			hp.zero(a, size)
			return a, nil
		}
		hp.mu.Unlock()
		if attempt >= 2 {
			return 0, ErrOutOfMemory
		}
		// Large allocation pressure goes straight to a full collection.
		if err := hp.Collect(tc, true); err != nil {
			return 0, err
		}
	}
}

// notePeakLocked publishes the bytes in use, which raises the gauge's
// high-water mark; callers hold hp.mu or have the world stopped.
func (hp *Heap) notePeakLocked() {
	hp.gUsed.Set(int64(hp.oldPos-hp.oldBase) + int64(hp.youngPos-hp.oldEnd))
}

func (hp *Heap) zero(a Addr, size int) {
	clear(hp.arena[a : int(a)+size])
}

// ---------------------------------------------------------------------------
// Object access.

func (hp *Heap) getU32(a Addr) uint32 { return binary.LittleEndian.Uint32(hp.arena[a:]) }
func (hp *Heap) setU32(a Addr, v uint32) {
	binary.LittleEndian.PutUint32(hp.arena[a:], v)
}
func (hp *Heap) getU64(a Addr) uint64 { return binary.LittleEndian.Uint64(hp.arena[a:]) }
func (hp *Heap) setU64(a Addr, v uint64) {
	binary.LittleEndian.PutUint64(hp.arena[a:], v)
}

// Bytes resolves a to the object's bytes from its header on, in place. The
// view is invalidated by the next collection (objects move), so callers use
// it between safepoints only.
func (hp *Heap) Bytes(a Addr) []byte { return hp.arena[a:] }

// ArrayLength reads the length from the resolved bytes of an array object.
func ArrayLength(b []byte) int { return int(binary.LittleEndian.Uint32(b[12:])) }

// remBufSpill bounds the per-thread write-barrier buffer; a full buffer
// spills into the shared remset under mu.
const remBufSpill = 1024

// Barrier is the generational write barrier. Mutator code calls it after
// writing reference v into the slot at absolute address slot: old->young
// slots go to the thread's local buffer; buffers merge into the remset when
// a collection stops the world (drainRemBuffers) or when the buffer fills,
// so the hot store path takes no lock.
func (hp *Heap) Barrier(tc *ThreadCtx, slot, v Addr) {
	if hp.inOld(slot) && hp.inYoung(v) {
		tc.remBuf = append(tc.remBuf, slot)
		if len(tc.remBuf) >= remBufSpill {
			tc.flushRemBuf()
		}
	}
}

// flushRemBuf spills the thread's write-barrier buffer into the shared
// remset. Called by the owning thread (spill, unregister); the stop-the-
// world drain in the collector uses drainRemBuffers instead.
func (tc *ThreadCtx) flushRemBuf() {
	if len(tc.remBuf) == 0 {
		return
	}
	hp := tc.hp
	hp.mu.Lock()
	for _, s := range tc.remBuf {
		hp.remset[s] = struct{}{}
	}
	hp.mu.Unlock()
	tc.remBuf = tc.remBuf[:0]
}

// GetLock reads the lock word of object a. Callers (the VM's monitor
// implementation) serialize access with their own lock.
func (hp *Heap) GetLock(a Addr) uint32 { return hp.getU32(a + hdrLock) }

// SetLock stores the lock word of object a.
func (hp *Heap) SetLock(a Addr, v uint32) { hp.setU32(a+hdrLock, v) }

// Stats returns a snapshot of the heap counters, read off the instruments
// that count them: allocations off the allocation-size histogram,
// collections off the pause histograms.
func (hp *Heap) Stats() Stats {
	return Stats{
		AllocBytes:   hp.hAllocSize.Sum(),
		AllocObjects: hp.hAllocSize.Count(),
		MinorGCs:     hp.hPauseMinor.Count(),
		FullGCs:      hp.hPauseFull.Count(),
		GCTime:       time.Duration(hp.hPause.Sum()),
		Promoted:     hp.cPromoted.Load(),
		MarkedNodes:  hp.cMarked.Load(),
		PeakUsed:     hp.gUsed.HighWater(),
		LiveAfterGC:  hp.gLiveAfterGC.Load(),
		HeapSize:     int64(len(hp.arena)),
	}
}

// ClassAllocCount returns how many instances of cls were ever allocated.
func (hp *Heap) ClassAllocCount(cls *lang.Class) int64 {
	return atomic.LoadInt64(&hp.allocCounts[cls.ID])
}

// ClassAllocCounts returns the allocation count per class name (plus
// "[]T" entries for arrays of element type T), nonzero entries only — the
// paper's per-data-class allocation profile (§4.1), in the form the -json
// run report embeds.
func (hp *Heap) ClassAllocCounts() map[string]int64 {
	out := make(map[string]int64)
	classes := len(hp.h.ClassList)
	for id := range hp.allocCounts {
		c := atomic.LoadInt64(&hp.allocCounts[id])
		switch {
		case c == 0:
		case id < classes:
			out[hp.h.ClassList[id].Name] = c
		default:
			out["[]"+hp.arrTypes.Elem(id-classes).String()] = c
		}
	}
	return out
}
