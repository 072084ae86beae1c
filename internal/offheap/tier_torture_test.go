package offheap

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/heap"
	"repro/internal/lang"
	"repro/internal/region"
)

// threadParker parks a registered heap thread: the offheap.Parker a VM
// thread hands the store, without the VM.
type threadParker struct {
	hp *heap.Heap
	tc *heap.ThreadCtx
}

func (p threadParker) BeginExternal()        { p.tc.BeginExternal() }
func (p threadParker) EndExternal()          { p.tc.EndExternal() }
func (p threadParker) StopTheWorld(f func()) { p.hp.StopTheWorld(p.tc, f) }

// TestTierTorture churns allocation, spill, promotion, and iteration
// release from several goroutines at once under a watermark tight enough
// that the evictor runs constantly. Each worker is a registered
// heap.ThreadCtx whose spills stop the world, and it polls the safepoint
// between rounds, where it holds no record bytes. Every worker re-verifies
// a shared set of records each round, so a lost page body, a double spill,
// or a promote racing an eviction shows up as a value mismatch — and the
// -race run in CI checks the protocol itself. Sibling of internal/heap's
// GC torture test, one storage level down.
func TestTierTorture(t *testing.T) { tierTorture(t) }

// TestTierTortureOnPoisonedRegions runs the torture with every region
// filled with 0xAA as it is handed out, the bodies spills returned and
// promotions and fresh pages reuse among them: the store must read no byte
// it did not write or zero, so every record reads back as it does on fresh
// memory.
func TestTierTortureOnPoisonedRegions(t *testing.T) {
	defer region.Poison(0xAA)()
	tierTorture(t)
}

func tierTorture(t *testing.T) {
	if testing.Short() {
		t.Skip("torture test skipped in -short")
	}
	f, err := lang.Parse("t.fj", "class Object { }")
	if err != nil {
		t.Fatal(err)
	}
	h, err := lang.BuildHierarchy(f)
	if err != nil {
		t.Fatal(err)
	}
	hp := heap.New(heap.Config{HeapSize: 1 << 20}, h, lang.NewArrayTypes(nil))
	rt, _ := newTieredRuntime(t, 6, 3)
	root := newScope(rt, 0)
	defer root.Close()

	// Shared records, one dedicated page each, written once and read by
	// every worker: they spill and promote continuously under pressure.
	const nShared = 8
	shared := make([]PageRef, nShared)
	for i := range shared {
		shared[i] = dedicated(t, root.Current(), uint16(i+1))
		put(rt, shared[i], 0, int64(i)*7919)
		put(rt, shared[i], 8, float64(i)+0.25)
	}

	const (
		workers = 4
		rounds  = 60
	)
	var failures atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pk := threadParker{hp, hp.RegisterThread()}
			defer hp.UnregisterThread(pk.tc)
			pk.tc.EndExternal()
			s := rt.NewIterScope(root.Current(), w+1)
			defer s.Close()
			for r := 0; r < rounds; r++ {
				pk.tc.Safepoint()
				s.IterationStart()
				// Private churn: allocations that force eviction, written
				// and immediately re-read.
				priv := make([]PageRef, 0, 6)
				for i := 0; i < 6; i++ {
					ref, err := s.Current().AllocRecord(pk, 100, 20000)
					if err != nil {
						failures.Add(1)
						continue
					}
					put(rt, ref, 0, int64(w*1_000_000+r*1_000+i))
					priv = append(priv, ref)
				}
				for i, ref := range priv {
					if got := get[int64](rt, ref, 0); got != int64(w*1_000_000+r*1_000+i) {
						t.Errorf("worker %d round %d: private record %d = %d", w, r, i, got)
					}
				}
				// Shared records must read the same values from any tier.
				for i, ref := range shared {
					if got := get[int64](rt, ref, 0); got != int64(i)*7919 {
						t.Errorf("worker %d round %d: shared record %d long = %d", w, r, i, got)
					}
					if got := get[float64](rt, ref, 8); got != float64(i)+0.25 {
						t.Errorf("worker %d round %d: shared record %d double = %v", w, r, i, got)
					}
				}
				s.IterationEnd()
			}
		}(w)
	}
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d allocation failures without fault injection", n)
	}
	if rt.Stats().PagesSpilled == 0 {
		t.Fatal("the workers never spilled")
	}
	checkTierAccounting(t, rt)
	for i, ref := range shared {
		if got := get[int64](rt, ref, 0); got != int64(i)*7919 {
			t.Fatalf("shared record %d = %d after torture", i, got)
		}
	}
}
