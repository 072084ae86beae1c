//go:build (linux || darwin) && !race

package region

import (
	"runtime"
	"runtime/debug"
	"syscall"
	"testing"
	"time"
)

// Each test starts from an empty pool (drain), so what the pool holds is
// what the test returned.

// drain unmaps every pooled region.
func drain() {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	for n, l := range pool.free {
		for _, r := range l {
			unmapRegion(r.mem)
		}
		delete(pool.free, n)
	}
	pool.bytes = 0
}

// hold takes one region of each size into a Set nothing else references,
// writes each, and returns their views alone: the Set is garbage once
// hold returns.
func hold(sizes ...int) [][]byte {
	s := NewSet()
	views := make([][]byte, len(sizes))
	for i, n := range sizes {
		views[i] = s.Get(n)
		views[i][0] = byte(i + 1)
	}
	return views
}

// waitForBase collects until InUse is back to base, and fails after 10 s.
func waitForBase(t *testing.T, base int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); InUse() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d regions handed out 10 s after their Set was dropped, baseline %d", InUse(), base)
		}
		runtime.GC()
	}
}

// pooledAt reports whether the pool holds view's region, and closed.
func pooledAt(view []byte) (found, guarded bool) {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	for _, r := range pool.free[len(view)] {
		if &r.mem[0] == &view[0] {
			return true, r.guarded
		}
	}
	return false, false
}

// TestPoolStaysWithinItsBound drops a Set holding regions of twelve sizes,
// half again the bound together, and one region larger than the bound
// alone: the pool keeps what fits, the rest and the large one go back to
// the kernel, and the probe returns to its baseline.
func TestPoolStaysWithinItsBound(t *testing.T) {
	drain()
	sizes := []int{poolBytes + 1<<12}
	for k := range 12 {
		sizes = append(sizes, poolBytes/8+k<<12)
	}
	runtime.GC()
	base := InUse()
	views := hold(sizes...)
	if n := InUse(); n != base+int64(len(views)) {
		t.Fatalf("InUse = %d with %d regions held, baseline %d", n, len(views), base)
	}
	waitForBase(t, base)
	pool.mu.Lock()
	held, total := pool.bytes, 0
	for n, l := range pool.free {
		total += n * len(l)
	}
	pool.mu.Unlock()
	if held != total || held > poolBytes {
		t.Fatalf("pool counts %d bytes and holds %d; bound %d", held, total, poolBytes)
	}
	unmapped := 0
	for _, v := range views {
		if found, _ := pooledAt(v); found {
			continue
		}
		if held+len(v) <= poolBytes {
			t.Fatalf("a %d-byte region was unmapped with %d bytes pooled", len(v), held)
		}
		// mprotect fails on a range that is no longer mapped.
		if err := syscall.Mprotect(v, syscall.PROT_NONE); err == nil {
			t.Fatalf("region at %p is neither pooled nor unmapped", &v[0])
		}
		unmapped++
	}
	if found, _ := pooledAt(views[0]); found || unmapped < 2 {
		t.Fatalf("%d regions unmapped; the one larger than the bound pooled: %v", unmapped, found)
	}
}

// TestReusedRegionArrivesPoisoned returns a written region and takes it
// again under the hook: the pool keeps it open, and the hook fills every
// handout, the reused one as well as a fresh one. The sizes are a page
// store's: a standard 32 KB page body and an oversize body rounded up to
// whole pages.
func TestReusedRegionArrivesPoisoned(t *testing.T) {
	const page = 32 << 10
	for _, size := range []int{page, 5 * page} {
		drain()
		s := NewSet()
		a := s.Get(size)
		for i := range a {
			a[i] = 0x55
		}
		s.Put(a)
		if found, guarded := pooledAt(a); !found || guarded {
			t.Fatalf("%d-byte region returned with Put: pooled %v, guarded %v; want pooled and open", size, found, guarded)
		}
		restore := Poison(0xAA)
		b, fresh := s.Get(size), s.Get(size)
		restore()
		if &b[0] != &a[0] {
			t.Fatalf("the returned %d-byte region was not reused", size)
		}
		for _, v := range [][]byte{b, fresh} {
			for i, c := range v {
				if c != 0xAA {
					t.Fatalf("%d-byte region at %p byte %d = %#x, want 0xaa", size, &v[0], i, c)
				}
			}
		}
		s.Put(b)
		s.Put(fresh)
	}
}

// sink keeps the stale read below from being optimised away.
var sink byte

// TestStaleViewOfReclaimedRegionFaults reads a view whose Set a finalizer
// returned: the region waits in the pool PROT_NONE, so the read faults,
// and under SetPanicOnFault the fault is a panic, not a crash.
func TestStaleViewOfReclaimedRegionFaults(t *testing.T) {
	const size = 5 << 12
	drain()
	runtime.GC()
	base := InUse()
	view := hold(size)[0]
	waitForBase(t, base)
	if found, guarded := pooledAt(view); !found || !guarded {
		t.Fatalf("reclaimed region pooled %v, guarded %v; want both", found, guarded)
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	faulted := func() (faulted bool) {
		defer func() { faulted = recover() != nil }()
		sink = view[0]
		return false
	}()
	if !faulted {
		t.Fatal("a stale view read its pooled region")
	}
}
