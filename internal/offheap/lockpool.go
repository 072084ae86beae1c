package offheap

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/faults"
)

// LockPool is the shared pool of reentrant monitor locks backing every
// synchronized block of a VM (§3.4), on heap objects and page records
// alike. The object's or record's 2-byte lock field holds the 1-based index
// of the pool lock currently protecting it, or 0. A bit vector tracks which
// pool locks are in use; when the last thread using a lock exits, the lock
// is returned to the pool and the lock field is zeroed, so the number of
// live lock objects is O(threads × nesting), not O(objects). A lock is
// built only when every built one is in use, and lockPoolSize caps how
// many ever are.
//
// The pool never resolves an address: Enter and Exit take the lock field
// their caller resolved (b[2:4] of a record's bytes, heap.LockWord of an
// object), so nothing under the pool mutex can promote, spill, collect or
// fail on a page fault.
const lockPoolSize = 4096

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
	locks []*poolLock
	// InUse is maintained for stats/tests.
	inUse int
	peak  int
}

// NewLockPool creates a pool that builds up to lockPoolSize locks, each on
// the first acquire that finds every built lock in use.
func NewLockPool() *LockPool { return &LockPool{} }

// InUse returns the number of pool locks currently assigned to lock fields.
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

// Reset readies the pool for the next job on a reused VM: the built locks
// stay (all unowned once none is in use) and the peak restarts. It refuses
// while a lock is still in use, as Runtime.Reset refuses live pages.
func (lp *LockPool) Reset() error {
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
		if i == lockPoolSize {
			return 0, fmt.Errorf("offheap: lock pool exhausted (%d locks)", lockPoolSize)
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

// Enter implements enterMonitor over lock, the lock field of the object or
// record: it binds a pool lock to the field if none is bound, then acquires
// it reentrantly on behalf of owner. The Parker, if non-nil, marks the
// thread parked while blocked; lock is not touched after that, since a
// parked thread's object may move and its record's page may be spilled.
func (lp *LockPool) Enter(lock []byte, owner any, pk Parker) error {
	lp.mu.Lock()
	id := getU16(lock)
	if id == 0 {
		var err error
		id, err = lp.acquireFreeLocked()
		if err != nil {
			lp.mu.Unlock()
			return err
		}
		putU16(lock, id)
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

// Exit implements exitMonitor over lock, the lock field of the object or
// record at its current address. When the last user releases the pool lock
// it is returned to the pool and the field is zeroed.
func (lp *LockPool) Exit(lock []byte, owner any) error {
	lp.mu.Lock()
	id := getU16(lock)
	if id == 0 {
		lp.mu.Unlock()
		return fmt.Errorf("IllegalMonitorStateException: exit without enter")
	}
	l := lp.locks[id-1]
	lp.mu.Unlock()

	l.mu.Lock()
	if l.owner != owner {
		l.mu.Unlock()
		return fmt.Errorf("IllegalMonitorStateException: exit by non-owner")
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
			putU16(lock, 0)
			lp.freeLocked(id)
		}
	}
	lp.mu.Unlock()
	return nil
}
