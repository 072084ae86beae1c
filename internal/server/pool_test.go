package server

import (
	"fmt"
	"testing"

	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/vm"
)

// TestProgCacheEvictsLeastRecentlyUsed: at progCacheCap entries the next
// new key pushes out the stalest one, and a re-read entry is not stale.
func TestProgCacheEvictsLeastRecentlyUsed(t *testing.T) {
	pc := newProgCache()
	builds := make(map[progKey]int)
	get := func(k progKey) *ir.Program {
		p, err := pc.get(k, func() (*ir.Program, error) { builds[k]++; return &ir.Program{}, nil })
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	key := func(i int) progKey { return progKey(fmt.Sprintf("k%02d", i)) }
	first := get(key(0))
	for i := 1; i < progCacheCap; i++ {
		get(key(i))
	}
	if get(key(0)) != first || builds[key(0)] != 1 { // refreshes k00: k01 is now the stalest
		t.Fatal("a cached program was rebuilt below the cap")
	}
	get(key(progCacheCap))
	if len(pc.entries) != progCacheCap {
		t.Fatalf("cache holds %d entries, cap is %d", len(pc.entries), progCacheCap)
	}
	if get(key(0)) != first {
		t.Fatal("the most recently used entry was evicted")
	}
	get(key(1))
	if builds[key(1)] != 2 {
		t.Fatalf("k01 built %d times, want 2 (evicted as least recently used, then rebuilt)", builds[key(1)])
	}
}

// TestProgCacheEvictedBuildStillCompletes: an entry evicted while its build
// is in flight still hands the finished program to the goroutine holding
// it; the result is just not cached for later jobs.
func TestProgCacheEvictedBuildStillCompletes(t *testing.T) {
	pc := newProgCache()
	started, release := make(chan struct{}), make(chan struct{})
	slow := &ir.Program{}
	got := make(chan *ir.Program)
	go func() {
		p, _ := pc.get("slow", func() (*ir.Program, error) {
			close(started)
			<-release
			return slow, nil
		})
		got <- p
	}()
	<-started
	for i := 0; i < progCacheCap; i++ { // "slow" is the stalest entry throughout
		pc.get(progKey(fmt.Sprintf("k%02d", i)), func() (*ir.Program, error) { return &ir.Program{}, nil })
	}
	pc.mu.Lock()
	_, cached := pc.entries["slow"]
	pc.mu.Unlock()
	if cached {
		t.Fatal("the in-flight entry was not evicted")
	}
	close(release)
	if p := <-got; p != slow {
		t.Fatal("the holder of an evicted entry did not get its build")
	}
	rebuilt := false
	pc.get("slow", func() (*ir.Program, error) { rebuilt = true; return slow, nil })
	if !rebuilt {
		t.Fatal("an evicted entry's result was served from the cache")
	}
}

// TestWarmPoolEvictsLeastRecentlyReturned: at capacity, returning a VM
// evicts the one returned longest ago, not the one just reset. With room
// for two VMs, the jobs A, A, B, B, C, C leave B and C warm: C's second
// run and a later B hit the pool, and A, evicted by C's first run, misses.
func TestWarmPoolEvictsLeastRecentlyReturned(t *testing.T) {
	_, c := newTestServer(t, Config{MaxConcurrent: 1, WarmPoolCap: 2})
	seed := int64(3)
	job := func(name string) SubmitRequest {
		return SubmitRequest{Sources: map[string]string{name + ".fj": seededSrc}, HeapSize: 4 << 20, RandSeed: &seed}
	}
	for i, step := range []struct {
		name string
		warm bool
	}{{"a", false}, {"a", true}, {"b", false}, {"b", true}, {"c", false}, {"c", true}, {"b", true}, {"a", false}} {
		st := submitWait(t, c, job(step.name))
		if st.State != StateDone {
			t.Fatalf("job %d (%s): %s (%s)", i, step.name, st.State, st.Error)
		}
		if st.WarmHit != step.warm {
			t.Fatalf("job %d (%s): warm hit %v, want %v", i, step.name, st.WarmHit, step.warm)
		}
	}
}

// TestWarmPoolForgetsRemovedVMs: a VM that is taken or evicted leaves no
// pointer in its bucket's backing array, where it would keep the VM, and
// the regions only its collection returns, alive.
func TestWarmPoolForgetsRemovedVMs(t *testing.T) {
	wp := newWarmPool(3, obs.NewRegistry())
	a, b, c := &vm.VM{}, &vm.VM{}, &vm.VM{}
	key := vmKey{prog: "p"}
	backing := []pooledVM{{a, 1}, {b, 2}, {c, 3}}
	wp.entries[key], wp.size, wp.tick = backing, 3, 3
	wp.evictLRULocked()
	if got := wp.take(key); got != c {
		t.Fatal("take did not return the most recently returned VM")
	}
	if got := wp.take(key); got != b {
		t.Fatal("evicting removed a VM other than the least recently returned")
	}
	for i, e := range backing {
		if e.m != nil {
			t.Errorf("slot %d still points at a removed VM", i)
		}
	}
	if len(wp.entries) != 0 || wp.size != 0 {
		t.Errorf("emptied pool keeps %d buckets and counts %d VMs", len(wp.entries), wp.size)
	}
}
