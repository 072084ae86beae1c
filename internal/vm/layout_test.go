package vm

import (
	"testing"
	"unsafe"
)

// TestThreadHotFieldsOwnTheirLines is the layout guard for Thread: the
// fields run and callFn write on the hot path lie at least a cache-line
// pair from both ends of the struct, so no 128-byte-aligned line pair that
// holds one can reach another object — two worker threads allocated back
// to back would otherwise share one (docs/PERFORMANCE.md, "Parallel load").
func TestThreadHotFieldsOwnTheirLines(t *testing.T) {
	var th Thread
	size := unsafe.Sizeof(th)
	for _, f := range []struct {
		name      string
		off, size uintptr
	}{
		{"instrs", unsafe.Offsetof(th.instrs), unsafe.Sizeof(th.instrs)},
		{"poolHits", unsafe.Offsetof(th.poolHits), unsafe.Sizeof(th.poolHits)},
		{"sp", unsafe.Offsetof(th.sp), unsafe.Sizeof(th.sp)},
		{"frames", unsafe.Offsetof(th.frames), unsafe.Sizeof(th.frames)},
	} {
		if f.off < cacheLinePair || size-(f.off+f.size) < cacheLinePair {
			t.Errorf("Thread.%s at [%d, %d) of %d bytes: want %d bytes of the struct on each side",
				f.name, f.off, f.off+f.size, size, cacheLinePair)
		}
	}
}
