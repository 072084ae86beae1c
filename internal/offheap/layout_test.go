package offheap

import (
	"testing"
	"unsafe"
)

// TestManagerAllocFieldsOwnTheirLines is the layout guard for PageManager:
// the fields every record allocation writes lie at least a cache-line pair
// from both ends of the struct, so two threads' managers allocated back to
// back never share a line pair (the same guard as vm.Thread's).
func TestManagerAllocFieldsOwnTheirLines(t *testing.T) {
	var m PageManager
	size := unsafe.Sizeof(m)
	for _, f := range []struct {
		name      string
		off, size uintptr
	}{
		{"cur", unsafe.Offsetof(m.cur), unsafe.Sizeof(m.cur)},
		{"pos", unsafe.Offsetof(m.pos), unsafe.Sizeof(m.pos)},
		{"pages", unsafe.Offsetof(m.pages), unsafe.Sizeof(m.pages)},
		{"records", unsafe.Offsetof(m.records), unsafe.Sizeof(m.records)},
	} {
		if f.off < cacheLinePair || size-(f.off+f.size) < cacheLinePair {
			t.Errorf("PageManager.%s at [%d, %d) of %d bytes: want %d bytes of the struct on each side",
				f.name, f.off, f.off+f.size, size, cacheLinePair)
		}
	}
}
