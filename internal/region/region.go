// Package region is the one source of a VM's bulk memory: a heap's arena
// with its two side bitmaps and every page body, standard or oversize, is
// a region, memory Go neither zeroes nor scans (an anonymous mapping on
// linux and darwin, map_unix.go; Go memory elsewhere and in race builds,
// map_other.go).
//
// An owner holds its regions in a Set only it references, and a finalizer
// returns them once Go finds the Set unreachable; a region the owner keeps
// no view of (a spilled page body) goes back at once with Set.Put. The
// free regions share one bounded pool, and a region past the bound is
// unmapped; Go memory is left to Go's collector. A reused region is handed
// out dirty, because its users never read a byte they did not write or
// zero (Poison tests it). One a finalizer returned is held PROT_NONE until
// then, so a view that outlived its owner faults instead of reading
// another owner's bytes.
package region

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// poolBytes bounds the free regions of every size together, because they
// stay resident outside any job's budget. A GraphChi unit builds two VMs:
// two 16 MiB heaps, 16.75 MiB each with their mark and remembered-slot
// bitmaps, and, on P′, two page stores holding 374 standard bodies and 12
// oversize ones rounded to whole pages, 16.4 MiB, fit with 14 MiB to spare.
// A third heap beside them (a previous unit's VM the finalizers return
// late) does not: 66.6 MiB, and the region that overflows is unmapped and
// mapped afresh later. A region larger than the whole bound is never
// pooled.
const poolBytes = 64 << 20

var pool = struct {
	mu    sync.Mutex
	bytes int // the free regions' total length, at most poolBytes
	free  map[int][]pooled
}{free: make(map[int][]pooled)}

// pooled is a free region; guarded marks one held PROT_NONE.
type pooled struct {
	mem     []byte
	guarded bool
}

var inUse, poison atomic.Int64

// InUse returns how many regions are handed out and not yet returned: the
// leak probe, back where it started once every owner is unreachable and
// Go has run their finalizers.
func InUse() int64 { return inUse.Load() }

// Poison fills every region handed out from now on, fresh or reused, with
// b, until restore. It is a test hook: a poisoned run that matches a clean
// one bit for bit reads no byte it did not write or zero. No run sets it.
func Poison(b byte) (restore func()) {
	old := poison.Swap(int64(b))
	return func() { poison.Store(old) }
}

// put takes a region back into the pool if it fits the bound, closed if
// guard is set. A spill does not close the body it returns: closing and
// reopening a region on every spill and promotion made graphchi_tiered's
// units 27 % slower, and reopening alone about 6 %.
func put(mem []byte, guard bool) {
	inUse.Add(-1)
	if !mapped {
		return
	}
	n := len(mem)
	pool.mu.Lock()
	keep := pool.bytes+n <= poolBytes
	if keep {
		if guard {
			protect(mem, false)
		}
		pool.free[n] = append(pool.free[n], pooled{mem, guard})
		pool.bytes += n
	}
	pool.mu.Unlock()
	if !keep {
		unmapRegion(mem)
	}
}

// A Set is the regions one owner (a heap, a page store) holds. Their
// slices point outside Go's heap and keep nothing alive: the owner's
// methods and its VM's threads use the views, and their callers go on
// using the VM, and so the owner, after them.
type Set struct {
	mu   sync.Mutex
	mems map[*byte][]byte
}

// NewSet returns an empty Set whose finalizer returns what it holds.
func NewSet() *Set {
	s := &Set{mems: make(map[*byte][]byte)}
	runtime.SetFinalizer(s, func(s *Set) {
		for _, mem := range s.mems {
			put(mem, true)
		}
	})
	return s
}

// Get hands out an n-byte region (n > 0), dirty unless freshly mapped.
func (s *Set) Get(n int) []byte {
	var r pooled
	pool.mu.Lock()
	if l := pool.free[n]; len(l) > 0 {
		r = l[len(l)-1]
		pool.free[n] = l[:len(l)-1]
		pool.bytes -= n
	}
	pool.mu.Unlock()
	mem := r.mem
	if mem == nil {
		mem = mapRegion(n)
	} else if r.guarded {
		protect(mem, true)
	}
	inUse.Add(1)
	if b := byte(poison.Load()); b != 0 {
		mem[0] = b
		for i := 1; i < len(mem); i *= 2 {
			copy(mem[i:], mem[:i])
		}
	}
	s.mu.Lock()
	s.mems[&mem[0]] = mem
	s.mu.Unlock()
	return mem
}

// Put returns a region at once: the caller keeps no view of it.
func (s *Set) Put(mem []byte) {
	s.mu.Lock()
	delete(s.mems, &mem[0])
	s.mu.Unlock()
	put(mem, false)
}
