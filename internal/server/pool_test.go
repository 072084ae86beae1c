package server

import (
	"fmt"
	"testing"

	"repro/internal/ir"
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
