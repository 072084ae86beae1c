package facade

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"repro/internal/heap"
	"repro/internal/offheap"
)

// A heap's arena and mark bitmap are memory Go neither zeroes nor scans,
// mapped by heap.New and unmapped by a finalizer once the heap is
// unreachable; spilled page bodies are frames that promotions and fresh
// pages reuse. The tests below hold that memory to three rules: every
// arena is returned, the runtime never reads a byte of it that it did not
// write or zero, and no view of an arena outlives its heap.

// TestDroppedVMsReturnTheirArenas builds and drops 64 VMs, P and P', and
// waits for Go's collector to unmap every arena they mapped: no owner has
// a call to make for its arena to go.
func TestDroppedVMsReturnTheirArenas(t *testing.T) {
	const vms = 64
	p, p2, err := Build(map[string]string{"arena.fj": diffPrograms[0].src}, diffPrograms[0].dataClasses)
	if err != nil {
		t.Fatal(err)
	}
	// Arenas earlier tests dropped may still be waiting for their
	// finalizers; they can only make the wait below shorter.
	runtime.GC()
	base := heap.LiveArenas()
	held := make([]*Result, 0, vms)
	for i := 0; i < vms; i++ {
		prog := p
		if i%2 == 1 {
			prog = p2
		}
		res, err := Run(prog, WithHeapSize(2<<20))
		if err != nil {
			t.Fatal(err)
		}
		res.Close()
		held = append(held, res)
	}
	if n := heap.LiveArenas(); n < vms {
		t.Fatalf("%d arenas mapped with %d VMs held", n, vms)
	}
	runtime.KeepAlive(held)
	for deadline := time.Now().Add(10 * time.Second); heap.LiveArenas() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d arenas still mapped 10 s after dropping %d VMs, baseline %d", heap.LiveArenas(), vms, base)
		}
		runtime.GC()
	}
}

// TestDifferentialBatteryOnPoisonedMemory runs the battery with every
// fresh heap arena and every reused page frame filled with 0xAA. The heap
// and the page store must read no byte they did not write or zero, so every
// cell prints, fails and allocates exactly as on clean memory.
func TestDifferentialBatteryOnPoisonedMemory(t *testing.T) {
	for _, dp := range diffPrograms {
		t.Run(dp.name, func(t *testing.T) {
			clean := runBattery(t, dp)
			defer heap.PoisonArenas(0xAA)()
			defer offheap.PoisonFrames(0xAA)()
			if poisoned := runBattery(t, dp); !slices.Equal(poisoned, clean) {
				t.Fatalf("poisoned memory changed the battery:\nclean:    %q\npoisoned: %q", clean, poisoned)
			}
		})
	}
}

// TestNoArenaViewOutlivesItsHeap runs the battery's programs side by side
// while Go collects after almost every allocation, so VMs are built and
// dropped and their arenas unmapped while others run. A view of an arena
// used after its heap became unreachable would fault. Race builds keep
// arenas in Go memory, which nothing unmaps, so only a build without
// -race puts this to the test.
func TestNoArenaViewOutlivesItsHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("collects after almost every allocation")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(1))
	t.Run("battery", func(t *testing.T) {
		for _, dp := range diffPrograms {
			t.Run(dp.name, func(t *testing.T) {
				t.Parallel()
				runBattery(t, dp)
			})
		}
	})
}
