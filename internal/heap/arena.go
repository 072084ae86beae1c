package heap

import (
	"runtime"
	"sync/atomic"
	"unsafe"
)

// arenaMapping is a heap's memory: the object arena followed by the mark
// bitmap, in one block the Go runtime neither zeroes nor scans (an
// anonymous mapping on linux and darwin, arena_unix.go; Go memory
// elsewhere and in race builds, arena_other.go). A fresh mapping reads as
// zeroes, but the heap never relies on that: TLAB handout and large
// allocations zero what they hand out, and a full collection clears the
// bitmap before it marks.
//
// Only the Heap references its mapping, and a finalizer unmaps it once
// the mapping is unreachable, so the memory lives exactly as long as the
// heap and no owner has a call to make. A mapped arena's slices point
// outside the Go heap and keep nothing alive; they are used only by the
// heap's own methods and by threads of its VM, whose callers go on using
// the thread, and so the VM and its heap, after the view.
type arenaMapping struct {
	mem []byte
}

// liveArenas counts mappings not yet unmapped (LiveArenas).
var liveArenas atomic.Int64

// LiveArenas returns how many heap arenas are mapped: one per heap built
// and not yet collected by Go's garbage collector. It is the leak probe
// beside offheap.(*Runtime).LiveManagers: once every heap is unreachable
// and the finalizers have run, it is back where it started.
func LiveArenas() int64 { return liveArenas.Load() }

// poison, when nonzero, is the byte written over every fresh mapping
// before the heap uses it (PoisonArenas).
var poison atomic.Uint32

// PoisonArenas makes every heap built from now on start from memory
// filled with b instead of zeroes, until the returned function restores
// the previous setting. It is a test hook: a poisoned run that matches a
// clean one bit for bit shows the heap reads no byte it did not write or
// zero. No run sets it.
func PoisonArenas(b byte) (restore func()) {
	old := poison.Swap(uint32(b))
	return func() { poison.Store(old) }
}

// newArenaMapping maps size arena bytes followed by the mark bitmap (one
// bit per 8 arena bytes) and returns the mapping with its two views.
func newArenaMapping(size int) (m *arenaMapping, arena []byte, markBits []uint32) {
	bitsOff := roundUp8(size)
	words := (size/8 + 31) / 32
	mem := mapArena(bitsOff + 4*words)
	if b := byte(poison.Load()); b != 0 {
		mem[0] = b
		for n := 1; n < len(mem); n *= 2 {
			copy(mem[n:], mem[:n])
		}
	}
	m = &arenaMapping{mem: mem}
	liveArenas.Add(1)
	runtime.SetFinalizer(m, (*arenaMapping).free)
	return m, mem[:size:size], unsafe.Slice((*uint32)(unsafe.Pointer(&mem[bitsOff])), words)
}

// free unmaps the mapping; it runs as the mapping's finalizer.
func (m *arenaMapping) free() {
	unmapArena(m.mem)
	liveArenas.Add(-1)
}
