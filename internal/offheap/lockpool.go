package offheap

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/faults"
)

// LockPool is the shared pool of reentrant monitor locks backing
// synchronized blocks on page records (§3.4). A record's 2-byte lock
// field holds the 1-based index of the pool lock currently protecting it,
// or 0. A bit vector tracks which pool locks are in use; when the last
// thread using a lock exits, the lock is returned to the pool and the
// record's lock field is zeroed, so the number of live lock objects is
// O(threads × nesting), not O(records). A lock is built only when every
// built one is in use, and defaultLockPoolSize caps how many ever are.
//
// The pool never resolves a record: Enter and Exit take the record bytes
// their caller resolved, so nothing under the pool mutex can promote, spill
// or fail on a page fault.
const defaultLockPoolSize = 4096

// Parker is the calling thread's hook into the heap's safepoint protocol: a
// blocking monitor operation marks the thread parked for the duration of
// the wait, and a disk spill runs with every other mutator parked
// (StopTheWorld), so no thread holds the bytes of a page while it moves. A
// nil Parker is allowed: monitor waits then park nothing and spills run
// inline, which is only safe on a store one thread uses.
type Parker interface {
	BeginExternal()
	EndExternal()
	StopTheWorld(f func())
}

type poolLock struct {
	mu    sync.Mutex
	cond  *sync.Cond
	owner any
	depth int
	// users counts threads that hold or are blocked on this lock plus the
	// records currently pointing at it; maintained under the pool mutex.
	users int
}

// LockPool is safe for concurrent use.
type LockPool struct {
	mu   sync.Mutex
	bits []uint64 // in-use bit vector, bit i == lock i in use
	// locks holds pointers so that growing the slice never moves a lock a
	// thread is blocked on.
	locks    []*poolLock
	capacity int // most locks the pool will build
	// InUse is maintained for stats/tests.
	inUse int
	peak  int
}

// NewLockPool creates a pool that builds up to capacity locks, each on
// the first acquire that finds every built lock in use.
func NewLockPool(capacity int) *LockPool {
	return &LockPool{capacity: capacity}
}

// InUse returns the number of pool locks currently assigned to records.
func (lp *LockPool) InUse() int {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	return lp.inUse
}

// PeakInUse returns the high-water mark of assigned locks.
func (lp *LockPool) PeakInUse() int {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	return lp.peak
}

// Built returns the number of pool locks constructed so far.
func (lp *LockPool) Built() int {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	return len(lp.locks)
}

// rewind readies the pool for the next job on a reused store: the built
// locks stay (all unowned once none is in use) and the peak restarts. It
// refuses while a lock is still in use, as Reset refuses live pages.
func (lp *LockPool) rewind() error {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	if lp.inUse != 0 {
		return fmt.Errorf("offheap: %w with %d pool lock(s) in use", faults.ErrNotReusable, lp.inUse)
	}
	lp.peak = 0
	return nil
}

// acquireFreeLocked takes the lowest free lock index, building lock
// len(locks) when every built lock is in use: that index is then the
// lowest free one, so IDs are those of a pool built up front.
func (lp *LockPool) acquireFreeLocked() (uint16, error) {
	i := len(lp.locks)
	for wi, w := range lp.bits {
		if w != ^uint64(0) {
			i = min(wi*64+bits.TrailingZeros64(^w), len(lp.locks))
			break
		}
	}
	if i == len(lp.locks) {
		if i == lp.capacity {
			return 0, fmt.Errorf("offheap: lock pool exhausted (%d locks)", lp.capacity)
		}
		l := &poolLock{}
		l.cond = sync.NewCond(&l.mu)
		lp.locks = append(lp.locks, l)
		if i/64 == len(lp.bits) {
			lp.bits = append(lp.bits, 0)
		}
	}
	lp.bits[i/64] |= 1 << (i % 64)
	lp.inUse++
	if lp.inUse > lp.peak {
		lp.peak = lp.inUse
	}
	return uint16(i + 1), nil
}

func (lp *LockPool) freeLocked(id uint16) {
	i := int(id - 1)
	lp.bits[i/64] &^= 1 << (i % 64)
	lp.inUse--
}

// Enter implements enterMonitor(record) over rec, the record's resolved
// bytes: it binds a pool lock to the record if none is bound, then acquires
// it reentrantly on behalf of owner. The Parker, if non-nil, marks the
// thread parked while blocked; rec is not touched after that, since a
// parked thread's pages may be spilled.
func (lp *LockPool) Enter(rec []byte, owner any, pk Parker) error {
	lp.mu.Lock()
	id := getU16(rec[2:])
	if id == 0 {
		var err error
		id, err = lp.acquireFreeLocked()
		if err != nil {
			lp.mu.Unlock()
			return err
		}
		putU16(rec[2:], id)
	}
	l := lp.locks[id-1]
	l.users++
	lp.mu.Unlock()

	l.mu.Lock()
	for l.owner != nil && l.owner != owner {
		if pk != nil {
			pk.BeginExternal()
		}
		l.cond.Wait()
		if pk != nil {
			l.mu.Unlock()
			pk.EndExternal()
			l.mu.Lock()
		}
	}
	l.owner = owner
	l.depth++
	l.mu.Unlock()
	return nil
}

// Exit implements exitMonitor(record) over rec, the record's resolved
// bytes. When the last user releases the lock it is returned to the pool
// and the record's lock field is zeroed.
func (lp *LockPool) Exit(rec []byte, owner any) error {
	lp.mu.Lock()
	id := getU16(rec[2:])
	if id == 0 {
		lp.mu.Unlock()
		return fmt.Errorf("offheap: exitMonitor on unlocked record")
	}
	l := lp.locks[id-1]
	lp.mu.Unlock()

	l.mu.Lock()
	if l.owner != owner {
		l.mu.Unlock()
		return fmt.Errorf("offheap: exitMonitor by non-owner")
	}
	l.depth--
	if l.depth == 0 {
		l.owner = nil
		l.cond.Broadcast()
	}
	l.mu.Unlock()

	lp.mu.Lock()
	l.users--
	if l.users == 0 {
		// No thread holds or waits on this lock: recycle it.
		if l.owner == nil {
			putU16(rec[2:], 0)
			lp.freeLocked(id)
		}
	}
	lp.mu.Unlock()
	return nil
}
