//go:build !race

package graphchi

import (
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/vm"
)

// TestHostBoundOnGraphChi is TestObjectBoundOnGraphChi's claim for the Go
// heap under the VM: a P′ run's host side is bounded too. Doubling the
// iterations doubles the sub-iterations and the data shipped across the
// boundary, but Go's TotalAlloc for the run may grow only by what a
// sub-iteration's bookkeeping costs (its page managers, worker tasks and
// boundary arguments): less than hostBytesPerSubIter per added
// sub-iteration. A Go copy of the shipped columns made per sub-iteration
// would cost about 48 KB each here (5,000 in-edges at 8 bytes of source
// value, 250 vertices at 32 bytes), and so would oversize page bodies the
// store did not recycle. Race builds allocate regions from Go, so the test
// runs without -race.
func TestHostBoundOnGraphChi(t *testing.T) {
	const hostBytesPerSubIter = 16 << 10
	sg := Shard(datagen.PowerLawGraph(2000, 40000, 5), 8, false)
	_, p2, err := BuildPrograms()
	if err != nil {
		t.Fatal(err)
	}
	run := func(iters int) (alloc uint64, subIters int) {
		machine, err := vm.New(p2, vm.Config{HeapSize: 16 << 20})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = machine.Release() }()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		met, _, err := Run(machine, sg, Config{App: PageRank, Workers: 2, Iterations: iters, MemoryBudget: 256 << 10})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc, met.SubIters
	}
	a4, s4 := run(4)
	a8, s8 := run(8)
	added := s8 - s4
	if added < 16 {
		t.Fatalf("%d sub-iterations at 4 iterations, %d at 8: too few intervals to measure", s4, s8)
	}
	if grew := int64(a8) - int64(a4); grew >= int64(added*hostBytesPerSubIter) {
		t.Fatalf("Go allocation grew %d B (%d → %d) over %d added sub-iterations: %d B each, bound %d",
			grew, a4, a8, added, grew/int64(added), hostBytesPerSubIter)
	}
}
