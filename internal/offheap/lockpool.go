package offheap

import (
	"fmt"
	"sync"
)

// LockPool is the shared pool of reentrant monitor locks backing
// synchronized blocks on page records (§3.4). A record's 2-byte lock
// field holds the 1-based index of the pool lock currently protecting it,
// or 0. A bit vector tracks which pool locks are in use; when the last
// thread using a lock exits, the lock is returned to the pool and the
// record's lock field is zeroed, so the number of live lock objects is
// O(threads × nesting), not O(records).
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
	mu    sync.Mutex
	bits  []uint64 // in-use bit vector, bit i == lock i in use
	locks []*poolLock
	// InUse is maintained for stats/tests.
	inUse int
	peak  int
}

// NewLockPool creates a pool with capacity locks.
func NewLockPool(capacity int) *LockPool {
	lp := &LockPool{
		bits:  make([]uint64, (capacity+63)/64),
		locks: make([]*poolLock, capacity),
	}
	for i := range lp.locks {
		l := &poolLock{}
		l.cond = sync.NewCond(&l.mu)
		lp.locks[i] = l
	}
	return lp
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

func (lp *LockPool) acquireFreeLocked() (uint16, error) {
	for wi, w := range lp.bits {
		if w == ^uint64(0) {
			continue
		}
		for b := 0; b < 64; b++ {
			if w&(1<<b) == 0 {
				i := wi*64 + b
				if i >= len(lp.locks) {
					break
				}
				lp.bits[wi] |= 1 << b
				lp.inUse++
				if lp.inUse > lp.peak {
					lp.peak = lp.inUse
				}
				return uint16(i + 1), nil
			}
		}
	}
	return 0, fmt.Errorf("offheap: lock pool exhausted (%d locks)", len(lp.locks))
}

func (lp *LockPool) freeLocked(id uint16) {
	i := int(id - 1)
	lp.bits[i/64] &^= 1 << (i % 64)
	lp.inUse--
}

// Enter implements enterMonitor(record): it binds a pool lock to the
// record if none is bound, then acquires it reentrantly on behalf of
// owner. The Parker, if non-nil, marks the thread parked while blocked.
func (lp *LockPool) Enter(rt *Runtime, ref PageRef, owner any, pk Parker) error {
	lp.mu.Lock()
	id := rt.GetLockID(ref)
	if id == 0 {
		var err error
		id, err = lp.acquireFreeLocked()
		if err != nil {
			lp.mu.Unlock()
			return err
		}
		rt.SetLockID(ref, id)
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

// Exit implements exitMonitor(record). When the last user releases the
// lock it is returned to the pool and the record's lock field is zeroed.
func (lp *LockPool) Exit(rt *Runtime, ref PageRef, owner any) error {
	lp.mu.Lock()
	id := rt.GetLockID(ref)
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
			rt.SetLockID(ref, 0)
			lp.freeLocked(id)
		}
	}
	lp.mu.Unlock()
	return nil
}
