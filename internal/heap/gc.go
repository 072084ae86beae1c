package heap

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/obs"
)

// Collector implementation. Both collections run with the world stopped
// and on hp.gcWorkers workers: the collecting thread is worker 0, the rest
// are goroutines started per phase, and with one worker the whole
// collector runs inline.
//
// A minor collection is a parallel scavenge that copies every live nursery
// object into the old generation. Its roots are the root sources and the
// old slots whose bit the write barrier set; a worker claims an object with
// a CAS on its GC word and copies it into its own promotion buffer, carved
// from the old generation by an atomic bump.
//
// A full collection is a Lisp-2 mark-compact driven by the mark bitmap.
// Workers mark both generations; forwarding addresses and reference
// updates are then computed per address chunk, visiting only the objects
// whose mark bit is set; the slide is serial and in address order, and the
// nursery's survivors land right behind the compacted old generation.
//
// Each collection ends with an empty nursery, and resize (heap.go) then
// moves the boundary between the generations for the room that is left.

const (
	// gcBusy is the GC word of a nursery object a worker is copying; no
	// object lives at address 1.
	gcBusy = 1
	// plabSize is the promotion buffer a worker takes from the old
	// generation at a time.
	plabSize = 16 << 10
	// chunkBytes is a full collection's unit of parallel work: a whole
	// number of mark-bitmap words (256 heap bytes each).
	chunkBytes = 64 << 10
	// A worker whose local stack grows past donateAt, or holds two objects
	// while another worker waits, moves half of it to the shared stack; a
	// worker that runs dry takes up to grabMax.
	donateAt = 1024
	grabMax  = 256
)

// span is a half-open address range.
type span struct{ pos, end Addr }

// gcWorker is one collection worker's private state. Counters are summed
// into the heap's once per collection.
type gcWorker struct {
	local  []Addr // objects this worker has yet to scan
	plab   span   // promotion buffer
	wasted Addr   // promotion buffer tails retired this collection

	marked, promoted, promotedBytes int64

	_ [64]byte // keeps two workers' hot fields off one cache line
}

// onWorkers runs f(w) for every w in [0, n): worker 0 on the calling
// goroutine, the others on goroutines of their own. It returns when all
// are done.
func onWorkers(n int, f func(w int)) {
	var wg sync.WaitGroup
	for w := 1; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(w)
		}()
	}
	f(0)
	wg.Wait()
}

// workStack is the work-sharing stack of objects that still need scanning,
// used by the mark and by the scavenge. Each worker pops from its local
// stack and donates half of it here when it grows long or another worker
// is hungry; a worker that runs dry waits here. The drain ends once every
// worker waits on an empty stack.
type workStack struct {
	mu      sync.Mutex
	cond    sync.Cond
	shared  []Addr
	workers int
	idle    int
	done    bool
	hungry  atomic.Bool // a worker waits on the empty shared stack
}

// drain scans objects on n workers until none is left. Worker 0's local
// stack (the roots the caller pushed there) seeds the shared stack; each
// worker then runs start, if given, and scan on every object it pops.
func (hp *Heap) drain(n int, start func(w *gcWorker, i int), scan func(w *gcWorker, a Addr)) {
	ws := &hp.work
	w0 := &hp.workers[0]
	ws.shared = append(ws.shared[:0], w0.local...)
	w0.local = w0.local[:0]
	ws.workers, ws.idle, ws.done = n, 0, false
	ws.hungry.Store(false)
	onWorkers(n, func(i int) {
		w := &hp.workers[i]
		if start != nil {
			start(w, i)
		}
		for {
			for len(w.local) > 0 {
				a := w.local[len(w.local)-1]
				w.local = w.local[:len(w.local)-1]
				scan(w, a)
				if len(w.local) > donateAt || len(w.local) > 1 && ws.hungry.Load() {
					ws.donate(w)
				}
			}
			if !ws.refill(w) {
				return
			}
		}
	})
}

// donate moves the older half of w's local stack to the shared one.
func (ws *workStack) donate(w *gcWorker) {
	half := len(w.local) / 2
	ws.mu.Lock()
	ws.shared = append(ws.shared, w.local[:half]...)
	ws.hungry.Store(false)
	ws.cond.Broadcast()
	ws.mu.Unlock()
	w.local = append(w.local[:0], w.local[half:]...)
}

// refill moves work from the shared stack to w's empty local one, waiting
// while other workers may still produce some. It reports false once there
// is none left anywhere.
func (ws *workStack) refill(w *gcWorker) bool {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	for len(ws.shared) == 0 {
		if ws.done {
			return false
		}
		ws.idle++
		if ws.idle == ws.workers {
			ws.done = true
			ws.cond.Broadcast()
			return false
		}
		ws.hungry.Store(true)
		ws.cond.Wait()
		ws.idle--
	}
	n := min(len(ws.shared), grabMax)
	w.local = append(w.local, ws.shared[len(ws.shared)-n:]...)
	ws.shared = ws.shared[:len(ws.shared)-n]
	return true
}

// collectSTW runs with all mutators parked.
func (hp *Heap) collectSTW(full bool) error {
	start := time.Now()
	var err error
	// A minor collection promotes at most the used nursery bytes; if the
	// old generation cannot absorb them, escalate to a full collection.
	n := hp.scavengeWorkers()
	if n == 0 {
		full = true
	}
	promotedBefore := hp.cPromoted.Load()
	if full {
		err = hp.fullGC()
	} else {
		hp.minorGC(n)
	}
	pause := time.Since(start).Nanoseconds()
	hp.hPause.Observe(pause)
	if full {
		hp.hPauseFull.Observe(pause)
		hp.obs.Emit(obs.EvGC, "full", pause, hp.gLiveAfterGC.Load(), 0)
	} else {
		hp.hPauseMinor.Observe(pause)
		hp.obs.Emit(obs.EvGC, "minor", pause, hp.cPromoted.Load()-promotedBefore, 0)
	}
	return err
}

// refSlots calls f with the absolute address of every reference slot in
// the object at a.
func (hp *Heap) refSlots(a Addr, f func(slot Addr)) {
	tw := hp.getU32(a + hdrType)
	if tw&arrayBit != 0 {
		if !hp.arrays[tw&^arrayBit].refs {
			return
		}
		end := a + ArrayHeader + 8*hp.getU32(a+12)
		for slot := a + ArrayHeader; slot < end; slot += 8 {
			f(slot)
		}
		return
	}
	for _, off := range hp.classes[tw].refs {
		f(a + off)
	}
}

func (hp *Heap) visitAllRoots(visit func(Addr) Addr) {
	hp.rootsMu.Lock()
	roots := make([]RootSource, len(hp.roots))
	copy(roots, hp.roots)
	hp.rootsMu.Unlock()
	for _, r := range roots {
		r.VisitRoots(visit)
	}
}

// ---------------------------------------------------------------------------
// Minor collection

// scavengeWorkers is the number of workers a minor collection runs on:
// the most, up to gcWorkers, whose promotion slack the old generation
// holds beyond the used nursery. A lone worker needs no slack, so only a
// nursery that does not fit at all gives 0, and a full collection.
func (hp *Heap) scavengeWorkers() int {
	room := int64(hp.oldEnd-hp.oldPos) - int64(hp.youngPos-hp.oldEnd)
	if room < 0 {
		return 0
	}
	return max(1, min(hp.gcWorkers, int(room/(2*plabSize))))
}

// promotionSlack bounds the old-generation bytes a scavenge on n workers
// consumes beyond the bytes it promotes: per worker, the tails of the
// buffers it retired (at most plabSize in all) and of its last one. A lone
// worker's buffer is the whole free old generation, which leaves no slack.
func promotionSlack(n int) int64 {
	if n == 1 {
		return 0
	}
	return int64(n) * 2 * plabSize
}

// minorGC scavenges the nursery on n workers.
func (hp *Heap) minorGC(n int) {
	w0 := &hp.workers[0]
	if n == 1 {
		w0.plab = span{hp.oldPos, hp.oldEnd}
		hp.promoteTop.Store(hp.oldEnd)
	} else {
		hp.promoteTop.Store(hp.oldPos)
	}

	// Roots on the collecting thread (root sources are not thread-safe);
	// the remembered-slot bitmap split among the workers, each of which
	// forwards its words' slots in address order and clears the words.
	hp.visitAllRoots(func(a Addr) Addr {
		if hp.inYoung(a) {
			return hp.evacuate(w0, a)
		}
		return a
	})
	rem := hp.oldRemBits()
	hp.drain(n, func(w *gcWorker, i int) {
		lo, scanned := i*len(rem)/n, 0
		for k, word := range rem[lo : (i+1)*len(rem)/n] {
			if word == 0 {
				continue
			}
			rem[lo+k] = 0
			scanned += bits.OnesCount32(word)
			for base := 128 * Addr(lo+k); word != 0; word &= word - 1 {
				hp.forwardSlot(w, base+4*Addr(bits.TrailingZeros32(word)))
			}
		}
		hp.cRemsetScanned.Add(int64(scanned))
	}, func(w *gcWorker, a Addr) {
		hp.refSlots(a, func(slot Addr) { hp.forwardSlot(w, slot) })
	})

	// The buffer that ends at the cursor gives its tail back; the others'
	// tails stay behind as gaps until the next full collection.
	top := hp.promoteTop.Load()
	var promoted, promotedBytes int64
	for i := range hp.workers {
		w := &hp.workers[i]
		if w.plab.end == top {
			top = w.plab.pos
		}
		promoted += w.promoted
		promotedBytes += w.promotedBytes
		w.plab, w.wasted, w.promoted, w.promotedBytes = span{}, 0, 0, 0
	}
	hp.oldPos = top
	hp.cPromoted.Add(promoted)
	hp.cMarked.Add(promoted)
	hp.cPromotedBytes.Add(promotedBytes)

	hp.resize()
	hp.invalidateTLABs()
	hp.notePeakLocked()
}

// forwardSlot points a slot that refers to a nursery object at the
// object's copy, evacuating it first if no worker has.
func (hp *Heap) forwardSlot(w *gcWorker, slot Addr) {
	if v := Addr(hp.getU64(slot)); hp.inYoung(v) {
		hp.setU64(slot, uint64(hp.evacuate(w, v)))
	}
}

// gcWord returns the GC word of the object at a for atomic access.
func (hp *Heap) gcWord(a Addr) *uint32 {
	return (*uint32)(unsafe.Pointer(&hp.arena[a+hdrGC]))
}

// evacuate returns the old-generation copy of nursery object a. The worker
// that moves a's GC word from 0 to gcBusy copies it into its promotion
// buffer, publishes the copy's address there and queues the copy for
// scanning; any other worker waits for that address.
func (hp *Heap) evacuate(w *gcWorker, a Addr) Addr {
	gw := hp.gcWord(a)
	for {
		switch fwd := atomic.LoadUint32(gw); fwd {
		case 0:
			if !atomic.CompareAndSwapUint32(gw, 0, gcBusy) {
				continue
			}
			size := hp.objSize(a)
			dst := hp.promoteAlloc(w, size)
			// Copy around the GC word, which other workers read atomically.
			hp.setU32(dst+hdrType, hp.getU32(a+hdrType))
			hp.setU32(dst+hdrGC, 0)
			copy(hp.arena[dst+hdrLock:dst+size], hp.arena[a+hdrLock:a+size])
			atomic.StoreUint32(gw, dst)
			w.promoted++
			w.promotedBytes += int64(size)
			w.local = append(w.local, dst)
			return dst
		case gcBusy:
			runtime.Gosched()
		default:
			return fwd
		}
	}
}

// promoteAlloc returns size old-generation bytes for a promotion. Small
// objects bump the worker's buffer; when one does not fit, the buffer's
// tail is retired and a new buffer taken, as long as the worker's retired
// tails stay within plabSize. Anything else takes exactly its size from
// the shared cursor. promotionSlack is the bound this keeps.
func (hp *Heap) promoteAlloc(w *gcWorker, size Addr) Addr {
	if a := w.plab.pos; a+size <= w.plab.end {
		w.plab.pos = a + size
		return a
	}
	if rest := w.plab.end - w.plab.pos; size <= plabSize/4 && w.wasted+rest <= plabSize {
		w.wasted += rest
		a := hp.promoteTop.Add(plabSize) - plabSize
		w.plab = span{a + size, a + plabSize}
		return a
	}
	return hp.promoteTop.Add(size) - size
}

// ---------------------------------------------------------------------------
// Full collection
//
// Marking uses a side bitmap (one bit per 8 heap bytes) set with
// compare-and-swap, so it can run on several workers. Forwarding addresses
// then use the whole GC header word.

// tryMark sets a's mark bit, reporting whether this call set it.
func (hp *Heap) tryMark(a Addr) bool { return setBit(hp.markBits, a/8) }

// markHeap traces the live set into the mark bitmap on every worker.
func (hp *Heap) markHeap() {
	w0 := &hp.workers[0]
	// Roots on the collecting thread (root sources are not thread-safe).
	hp.visitAllRoots(func(a Addr) Addr {
		if a != 0 && hp.tryMark(a) {
			w0.local = append(w0.local, a)
		}
		return a
	})
	hp.drain(hp.gcWorkers, nil, func(w *gcWorker, a Addr) {
		w.marked++
		hp.refSlots(a, func(slot Addr) {
			if child := Addr(hp.getU64(slot)); child != 0 && hp.tryMark(child) {
				w.local = append(w.local, child)
			}
		})
	})
	var total int64
	for i := range hp.workers {
		total += hp.workers[i].marked
		hp.workers[i].marked = 0
	}
	hp.cMarked.Add(total)
}

// chunk is a full collection's unit of work: an address range, the live
// bytes marked in it and where they move to.
type chunk struct {
	lo, hi     Addr
	live, dest Addr
}

// appendChunks splits [lo, hi) at multiples of chunkBytes.
func appendChunks(cs []chunk, lo, hi Addr) []chunk {
	for lo < hi {
		end := min(hi, (lo/chunkBytes+1)*chunkBytes)
		cs = append(cs, chunk{lo: lo, hi: end})
		lo = end
	}
	return cs
}

// eachChunk runs f on every chunk of the current full collection, spread
// over the workers.
func (hp *Heap) eachChunk(f func(c *chunk)) {
	var next atomic.Int64
	onWorkers(min(hp.gcWorkers, len(hp.chunks)), func(int) {
		for i := int(next.Add(1) - 1); i < len(hp.chunks); i = int(next.Add(1) - 1) {
			f(&hp.chunks[i])
		}
	})
}

// eachMarked calls f, in address order, on every object in [lo, hi) whose
// mark bit is set.
func (hp *Heap) eachMarked(lo, hi Addr, f func(a Addr)) {
	for w := lo / 256; w <= (hi-1)/256; w++ {
		word, base := hp.markBits[w], w*256
		if base < lo {
			word &^= 1<<((lo-base)/8) - 1
		}
		if hi-base < 256 {
			word &= 1<<((hi-base)/8) - 1
		}
		for ; word != 0; word &= word - 1 {
			f(base + 8*Addr(bits.TrailingZeros32(word)))
		}
	}
}

func (hp *Heap) fullGC() error {
	// Phase 1: parallel mark into the cleared bitmap.
	clear(hp.markBits)
	hp.markHeap()

	// Phase 2: forwarding addresses, stored in the whole GC header word
	// (liveness lives in the bitmap). The old generation slides left and
	// the nursery's survivors land right behind it: chunks in that order
	// count their live bytes, a prefix sum places each chunk, and then
	// each chunk forwards its objects. The fit check comes first, so a
	// failed collection writes nothing.
	cs := appendChunks(hp.chunks[:0], hp.oldBase, hp.oldPos)
	hp.chunks = appendChunks(cs, hp.oldEnd, hp.youngPos)
	hp.eachChunk(func(c *chunk) {
		hp.eachMarked(c.lo, c.hi, func(a Addr) { c.live += hp.objSize(a) })
	})
	liveBytes := int64(0)
	for i := range hp.chunks {
		hp.chunks[i].dest = hp.oldBase + Addr(liveBytes)
		liveBytes += int64(hp.chunks[i].live)
	}
	if int64(hp.oldBase)+liveBytes > int64(hp.oldBound) {
		// The live set does not fit in the largest old generation: the
		// program has outgrown the heap.
		return ErrOutOfMemory
	}
	hp.eachChunk(func(c *chunk) {
		dst := c.dest
		hp.eachMarked(c.lo, c.hi, func(a Addr) {
			hp.setU32(a+hdrGC, dst)
			dst += hp.objSize(a)
		})
	})

	// Phase 3: update references (roots, then every live object's slots)
	// to forwarding addresses while objects are still in place.
	hp.visitAllRoots(func(a Addr) Addr {
		if a == 0 {
			return 0
		}
		return hp.getU32(a + hdrGC)
	})
	hp.eachChunk(func(c *chunk) {
		hp.eachMarked(c.lo, c.hi, func(a Addr) {
			hp.refSlots(a, func(slot Addr) {
				if v := Addr(hp.getU64(slot)); v != 0 {
					hp.setU64(slot, uint64(hp.getU32(v+hdrGC)))
				}
			})
		})
	})

	// Phase 4: move, in address order (every destination is at or below
	// its source).
	var movedBytes int64
	for i := range hp.chunks {
		c := &hp.chunks[i]
		hp.eachMarked(c.lo, c.hi, func(a Addr) {
			size := hp.objSize(a)
			dst := hp.getU32(a + hdrGC)
			if dst != a {
				copy(hp.arena[dst:dst+size], hp.arena[a:a+size])
				movedBytes += int64(size)
			}
			hp.setU32(dst+hdrGC, 0)
		})
	}
	hp.cEvacuated.Add(movedBytes)

	// No slot names the emptied nursery any more. A failed collection
	// returned above with every remembered bit still set.
	clear(hp.oldRemBits())
	hp.oldPos = hp.oldBase + Addr(liveBytes)
	hp.resize()
	hp.invalidateTLABs()
	hp.gLiveAfterGC.Set(liveBytes)
	hp.notePeakLocked()
	return nil
}
