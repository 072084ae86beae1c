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

// TestRuntimeTableOwnsItsLines is the layout guard for Runtime.table, which
// every record access of every thread loads: the fields written on page
// acquires (mu, free, live) and on iteration starts (nextIter) and every
// other field of the store lie at least a cache-line pair away from
// it, so none of those writes invalidates the line the readers hold.
func TestRuntimeTableOwnsItsLines(t *testing.T) {
	var rt Runtime
	lo := unsafe.Offsetof(rt.table)
	hi := lo + unsafe.Sizeof(rt.table)
	for _, f := range []struct {
		name      string
		off, size uintptr
	}{
		{"mu", unsafe.Offsetof(rt.mu), unsafe.Sizeof(rt.mu)},
		{"free", unsafe.Offsetof(rt.free), unsafe.Sizeof(rt.free)},
		{"live", unsafe.Offsetof(rt.live), unsafe.Sizeof(rt.live)},
		{"nextIter", unsafe.Offsetof(rt.nextIter), unsafe.Sizeof(rt.nextIter)},
		{"Locks", unsafe.Offsetof(rt.Locks), unsafe.Sizeof(rt.Locks)},
		{"gBytesInUse", unsafe.Offsetof(rt.gBytesInUse), unsafe.Sizeof(rt.gBytesInUse)},
		{"quota", unsafe.Offsetof(rt.quota), unsafe.Sizeof(rt.quota)},
		{"tier", unsafe.Offsetof(rt.tier), unsafe.Sizeof(rt.tier)},
	} {
		if f.off+f.size+cacheLinePair > lo && f.off < hi+cacheLinePair {
			t.Errorf("Runtime.%s at [%d, %d) is within %d bytes of table at [%d, %d)",
				f.name, f.off, f.off+f.size, cacheLinePair, lo, hi)
		}
	}
}
