package facade

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"repro/internal/ir"
	"repro/internal/region"
)

// A heap's arena and mark bitmap, and every standard page body, are
// regions (internal/region): memory Go neither zeroes nor scans, handed out
// by one recycled source and returned by a finalizer once their heap or
// page store is unreachable, or by a spill at once. The tests below hold
// that memory to three rules: every region is returned, the runtime never
// reads a byte of one that it did not write or zero, and no view of a
// region outlives its owner.

// TestDroppedVMsReturnTheirRegions builds and drops 64 VMs — P, P' and a
// P' whose pages spill and promote — and waits for Go's collector to
// return every region they took: no owner has a call to make for its
// memory to go.
func TestDroppedVMsReturnTheirRegions(t *testing.T) {
	const vms = 64
	p, err := Compile(map[string]string{"tier.fj": tierSrc})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Transform(p, TransformOptions{DataClasses: []string{"Big", "Main"}})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	legs := []struct {
		prog *ir.Program
		opts []Option
	}{
		{p, []Option{WithHeapSize(2 << 20)}},
		{p2, []Option{WithHeapSize(2 << 20)}},
		{p2, []Option{WithHeapSize(2 << 20), WithTiering(dir, 4, 2)}},
	}
	// Regions earlier tests dropped may still be waiting for their
	// finalizers; they can only make the wait below shorter.
	runtime.GC()
	base := region.InUse()
	held := make([]*Result, 0, vms)
	for i := 0; i < vms; i++ {
		leg := legs[i%len(legs)]
		res, err := Run(leg.prog, leg.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if i == 2 && res.Stats().Offheap.PagesSpilled == 0 {
			t.Fatal("the tiered leg never spilled")
		}
		res.Close()
		held = append(held, res)
	}
	if n := region.InUse(); n < base+vms {
		t.Fatalf("%d regions handed out with %d VMs held, baseline %d", n, vms, base)
	}
	runtime.KeepAlive(held)
	for deadline := time.Now().Add(10 * time.Second); region.InUse() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d regions still handed out 10 s after dropping %d VMs, baseline %d", region.InUse(), vms, base)
		}
		runtime.GC()
	}
}

// TestDifferentialBatteryOnPoisonedMemory runs the battery with every
// region, fresh or reused, filled with 0xAA as it is handed out. The heap
// and the page store must read no byte they did not write or zero, so every
// cell prints, fails and allocates exactly as on clean memory.
func TestDifferentialBatteryOnPoisonedMemory(t *testing.T) {
	for _, dp := range diffPrograms {
		t.Run(dp.name, func(t *testing.T) {
			clean := runBattery(t, dp)
			defer region.Poison(0xAA)()
			if poisoned := runBattery(t, dp); !slices.Equal(poisoned, clean) {
				t.Fatalf("poisoned memory changed the battery:\nclean:    %q\npoisoned: %q", clean, poisoned)
			}
		})
	}
}

// TestNoArenaViewOutlivesItsHeap runs the battery's programs side by side
// while Go collects after almost every allocation, so VMs are built and
// dropped and their regions returned, held PROT_NONE or unmapped, while
// others run. A view of an arena or a page body used after its owner
// became unreachable would fault. Race builds keep regions in Go memory,
// which nothing protects, so only a build without -race puts this to the
// test.
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
