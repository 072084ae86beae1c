package heap

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Collector implementation. Minor collections evacuate live nursery
// objects into the old generation (copying scavenge with promotion on
// first survival); full collections mark both generations and slide the
// old generation (Lisp-2 mark-compact), then evacuate nursery survivors
// behind it. Both run with the world stopped.

// collectSTW runs with all mutators parked.
func (hp *Heap) collectSTW(full bool) error {
	start := time.Now()
	var err error
	if !full {
		// A minor collection promotes at most the used nursery bytes; if
		// the old generation cannot absorb that, escalate to a full
		// collection.
		if int64(hp.oldEnd-hp.oldPos) < int64(hp.youngPos-hp.oldEnd) {
			full = true
		}
	}
	promotedBefore := hp.stats.promoted.Load()
	if full {
		err = hp.fullGC()
	} else {
		hp.minorGC()
	}
	pause := time.Since(start).Nanoseconds()
	hp.hPause.Observe(pause)
	if full {
		hp.hPauseFull.Observe(pause)
		hp.obs.Emit(obs.EvGC, "full", pause, hp.stats.liveAfterGC.Load(), 0)
	} else {
		hp.hPauseMinor.Observe(pause)
		hp.obs.Emit(obs.EvGC, "minor", pause, hp.stats.promoted.Load()-promotedBefore, 0)
	}
	return err
}

// refSlots calls f with the absolute address of every reference slot in
// the object at a.
func (hp *Heap) refSlots(a Addr, f func(slot Addr)) {
	tw := hp.getU32(a + hdrType)
	if tw&arrayBit != 0 {
		elem := hp.arrTypes.Elem(int(tw &^ arrayBit))
		if !elem.IsRef() {
			return
		}
		n := int(hp.getU32(a + 12))
		base := a + ArrayHeader
		for i := 0; i < n; i++ {
			f(base + Addr(i*8))
		}
		return
	}
	cls := hp.h.ClassList[int(tw)]
	base := a + ScalarHeader
	for _, fl := range cls.AllFields {
		if fl.Type.IsRef() {
			f(base + Addr(fl.Offset))
		}
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

// drainRemBuffers merges every thread's write-barrier buffer into the
// remset. Runs with the world stopped: parked threads publish their
// buffers via the safepoint mutex, so the reads here are race-free.
func (hp *Heap) drainRemBuffers() {
	hp.sp.eachThread(func(tc *ThreadCtx) {
		for _, s := range tc.remBuf {
			hp.remset[s] = struct{}{}
		}
		tc.remBuf = tc.remBuf[:0]
	})
}

func (hp *Heap) minorGC() {
	hp.drainRemBuffers()
	scanStart := hp.oldPos

	// copyYoung evacuates a nursery object to the old generation,
	// leaving a forwarding address in its GC word.
	var promotedBytes int64
	var copyYoung func(a Addr) Addr
	copyYoung = func(a Addr) Addr {
		if a == 0 || !hp.inYoung(a) {
			return a
		}
		if fwd := hp.getU32(a + hdrGC); fwd != 0 {
			return fwd
		}
		size := hp.objSize(a)
		dst := hp.oldPos
		hp.oldPos += Addr(size)
		copy(hp.arena[dst:int(dst)+size], hp.arena[a:int(a)+size])
		hp.setU32(a+hdrGC, dst)
		hp.stats.promoted.Add(1)
		hp.stats.marked.Add(1)
		promotedBytes += int64(size)
		return dst
	}

	hp.visitAllRoots(copyYoung)
	hp.cRemsetScanned.Add(int64(len(hp.remset)))
	for slot := range hp.remset {
		v := Addr(hp.getU64(slot))
		hp.setU64(slot, uint64(copyYoung(v)))
	}
	// Cheney scan over the freshly promoted objects.
	for scan := scanStart; scan < hp.oldPos; {
		hp.refSlots(scan, func(slot Addr) {
			v := Addr(hp.getU64(slot))
			hp.setU64(slot, uint64(copyYoung(v)))
		})
		scan += Addr(hp.objSize(scan))
	}

	hp.youngPos = hp.oldEnd
	hp.remset = make(map[Addr]struct{})
	hp.invalidateTLABs()
	hp.notePeakLocked()
	hp.cPromotedBytes.Add(promotedBytes)
}

// ---------------------------------------------------------------------------
// Full collection
//
// Marking uses a side bitmap (one bit per 8 heap bytes) set with
// compare-and-swap, so it can run on several workers — the parallel mark
// of the paper's collector. Forwarding addresses then use the whole GC
// header word.

// marked reports whether a's mark bit is set.
func (hp *Heap) marked(a Addr) bool {
	w := a / 8
	return atomic.LoadUint32(&hp.markBits[w/32])&(1<<(w%32)) != 0
}

// tryMark sets a's mark bit, reporting whether this call set it.
func (hp *Heap) tryMark(a Addr) bool {
	w := a / 8
	idx := w / 32
	bit := uint32(1) << (w % 32)
	for {
		old := atomic.LoadUint32(&hp.markBits[idx])
		if old&bit != 0 {
			return false
		}
		if atomic.CompareAndSwapUint32(&hp.markBits[idx], old, old|bit) {
			return true
		}
	}
}

// markHeap traces the live set into the mark bitmap using hp.gcWorkers
// goroutines and returns the live nursery objects (for evacuation).
func (hp *Heap) markHeap() []Addr {
	type shared struct {
		mu    sync.Mutex
		cond  *sync.Cond
		stack []Addr
		idle  int
		done  bool
	}
	sh := &shared{}
	sh.cond = sync.NewCond(&sh.mu)

	// Seed from roots (single-threaded; root sources are not
	// thread-safe).
	hp.visitAllRoots(func(a Addr) Addr {
		if a != 0 && hp.tryMark(a) {
			sh.stack = append(sh.stack, a)
		}
		return a
	})

	n := hp.gcWorkers
	if n < 1 {
		n = 1
	}
	liveYoung := make([][]Addr, n)
	markedCnt := make([]int64, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var local []Addr
			for {
				// Refill from the shared stack.
				sh.mu.Lock()
				for len(sh.stack) == 0 && !sh.done {
					sh.idle++
					if sh.idle == n {
						sh.done = true
						sh.cond.Broadcast()
						sh.mu.Unlock()
						return
					}
					sh.cond.Wait()
					sh.idle--
				}
				if sh.done {
					sh.mu.Unlock()
					return
				}
				grab := len(sh.stack)
				if grab > 256 {
					grab = 256
				}
				local = append(local[:0], sh.stack[len(sh.stack)-grab:]...)
				sh.stack = sh.stack[:len(sh.stack)-grab]
				sh.mu.Unlock()

				for len(local) > 0 {
					a := local[len(local)-1]
					local = local[:len(local)-1]
					markedCnt[w]++
					if hp.inYoung(a) {
						liveYoung[w] = append(liveYoung[w], a)
					}
					hp.refSlots(a, func(slot Addr) {
						child := Addr(hp.getU64(slot))
						if child != 0 && hp.tryMark(child) {
							local = append(local, child)
						}
					})
					// Donate surplus work from the tail (cheap slice cut).
					if len(local) > 2048 {
						half := len(local) / 2
						sh.mu.Lock()
						sh.stack = append(sh.stack, local[half:]...)
						sh.cond.Broadcast()
						sh.mu.Unlock()
						local = local[:half]
					}
				}
			}
		}(w)
	}
	wg.Wait()

	var out []Addr
	var total int64
	for w := 0; w < n; w++ {
		out = append(out, liveYoung[w]...)
		total += markedCnt[w]
	}
	hp.stats.marked.Add(total)
	return out
}

func (hp *Heap) fullGC() error {
	// Phase 1: parallel mark into the cleared bitmap; live nursery objects
	// are recorded for evacuation.
	clear(hp.markBits)
	liveYoung := hp.markHeap()

	// Phase 2: compute forwarding addresses (stored in the whole GC
	// header word; liveness lives in the bitmap). Old generation slides
	// left; nursery survivors are placed right behind it.
	newPos := hp.oldBase
	liveBytes := int64(0)
	for a := hp.oldBase; a < hp.oldPos; {
		size := Addr(hp.objSize(a))
		if hp.marked(a) {
			hp.setU32(a+hdrGC, uint32(newPos))
			newPos += size
			liveBytes += int64(size)
		}
		a += size
	}
	for _, a := range liveYoung {
		size := Addr(hp.objSize(a))
		hp.setU32(a+hdrGC, uint32(newPos))
		newPos += size
		liveBytes += int64(size)
	}
	if newPos > hp.oldEnd {
		// The live set does not fit in the old generation: the program
		// has outgrown the heap.
		hp.clearMarks(liveYoung)
		return ErrOutOfMemory
	}

	// Phase 3: update references (roots and live-object slots) to
	// forwarding addresses while objects are still in place.
	fwd := func(a Addr) Addr {
		if a == 0 {
			return 0
		}
		return hp.getU32(a + hdrGC)
	}
	hp.visitAllRoots(fwd)
	updateSlots := func(a Addr) {
		hp.refSlots(a, func(slot Addr) {
			hp.setU64(slot, uint64(fwd(Addr(hp.getU64(slot)))))
		})
	}
	for a := hp.oldBase; a < hp.oldPos; {
		size := Addr(hp.objSize(a))
		if hp.marked(a) {
			updateSlots(a)
		}
		a += size
	}
	for _, a := range liveYoung {
		updateSlots(a)
	}

	// Phase 4: move. Slide the old generation in address order (dest <=
	// src), then evacuate nursery survivors.
	var movedBytes int64
	for a := hp.oldBase; a < hp.oldPos; {
		size := Addr(hp.objSize(a))
		if hp.marked(a) {
			dst := hp.getU32(a + hdrGC)
			if dst != a {
				copy(hp.arena[dst:dst+size], hp.arena[a:a+size])
				movedBytes += int64(size)
			}
			hp.setU32(dst+hdrGC, 0)
		}
		a += size
	}
	for _, a := range liveYoung {
		size := Addr(hp.objSize(a))
		dst := hp.getU32(a + hdrGC)
		copy(hp.arena[dst:dst+size], hp.arena[a:a+size])
		hp.setU32(dst+hdrGC, 0)
		movedBytes += int64(size)
	}
	hp.cEvacuated.Add(movedBytes)

	hp.oldPos = newPos
	hp.youngPos = hp.oldEnd
	hp.remset = make(map[Addr]struct{})
	// Buffered barrier entries name pre-compaction slots; the nursery was
	// evacuated, so they are all stale — drop them with the remset.
	hp.sp.eachThread(func(tc *ThreadCtx) { tc.remBuf = tc.remBuf[:0] })
	hp.invalidateTLABs()
	hp.stats.liveAfterGC.Store(liveBytes)
	hp.notePeakLocked()
	return nil
}

// clearMarks undoes forwarding words after a failed full collection so the
// heap remains walkable (the VM is about to fail with OOM anyway); the
// next full collection clears the bitmap before it marks.
func (hp *Heap) clearMarks(liveYoung []Addr) {
	for a := hp.oldBase; a < hp.oldPos; {
		size := Addr(hp.objSize(a))
		hp.setU32(a+hdrGC, 0)
		a += size
	}
	for _, a := range liveYoung {
		hp.setU32(a+hdrGC, 0)
	}
}

// ForceGC runs a collection on behalf of tests and tools.
func (hp *Heap) ForceGC(tc *ThreadCtx, full bool) error {
	return hp.Collect(tc, full)
}
