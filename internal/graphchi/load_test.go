package graphchi

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/faults"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/offheap"
	"repro/internal/vm"
)

// TestChunks is the table test of the one chunking build, update and
// extract share: chunks tile the interval, are a pure function of (interval,
// workers), number at most min(workers, n), and none outweighs the ideal
// share by more than the interval's heaviest vertex (weight: in-degree + 1).
func TestChunks(t *testing.T) {
	power := Shard(datagen.PowerLawGraph(777, 9000, 13), 6, false)
	star := Shard(starGraph(10), 2, false)
	for _, c := range []struct {
		iv      [2]int
		workers int
		want    [][2]int
	}{
		// The hub (weight 10 of 19) gets a chunk to itself; an equal vertex
		// count would have split 14 : 5.
		{[2]int{0, 10}, 2, [][2]int{{0, 1}, {1, 10}}},
		{[2]int{1, 10}, 3, [][2]int{{0, 3}, {3, 6}, {6, 9}}},
		{[2]int{3, 5}, 5, [][2]int{{0, 1}, {1, 2}}},
		{[2]int{4, 4}, 2, nil},
	} {
		if got := star.chunks(c.iv, c.workers); !reflect.DeepEqual(got, c.want) {
			t.Errorf("star %v, %d workers: chunks %v, want %v", c.iv, c.workers, got, c.want)
		}
	}

	type interval struct {
		sg *ShardedGraph
		iv [2]int
	}
	ivs := []interval{{star, [2]int{0, 10}}, {power, [2]int{0, power.NumVertices}}}
	for _, iv := range power.Intervals(1000) {
		ivs = append(ivs, interval{power, iv})
	}
	for _, c := range ivs {
		for _, workers := range []int{1, 2, 3, 4, 5, 8} {
			chunks := c.sg.chunks(c.iv, workers)
			if again := c.sg.chunks(c.iv, workers); !reflect.DeepEqual(chunks, again) {
				t.Errorf("%v/%d: not deterministic: %v then %v", c.iv, workers, chunks, again)
			}
			n := c.iv[1] - c.iv[0]
			if len(chunks) > min(workers, n) {
				t.Errorf("%v/%d: %d chunks for %d vertices", c.iv, workers, len(chunks), n)
			}
			weight := func(lo, hi int) int64 {
				return c.sg.InStart[c.iv[0]+hi] - c.sg.InStart[c.iv[0]+lo] + int64(hi-lo)
			}
			var heaviest int64
			for i := 0; i < n; i++ {
				heaviest = max(heaviest, weight(i, i+1))
			}
			ideal := float64(weight(0, n)) / float64(min(workers, n))
			next := 0
			for _, ch := range chunks {
				if ch[0] != next || ch[1] <= ch[0] {
					t.Fatalf("%v/%d: chunks %v do not tile [0, %d)", c.iv, workers, chunks, n)
				}
				next = ch[1]
				if w := float64(weight(ch[0], ch[1])); w > ideal+float64(heaviest) {
					t.Errorf("%v/%d: chunk %v weighs %v, ideal %v, heaviest vertex %d", c.iv, workers, ch, w, ideal, heaviest)
				}
			}
			if next != n {
				t.Errorf("%v/%d: chunks %v end at %d, want %d", c.iv, workers, chunks, next, n)
			}
		}
	}
}

// TestRecoveryUnderParallelLoad: the load runs on the worker pool, so the
// failures the engine recovers from now happen inside a worker's buildRange
// — an injected page-acquire fault, an injected heap-allocation fault, a
// planned worker crash halfway through a chunk, and genuine exhaustion (a
// 1 MiB heap for P, a 16-page quota for P′, under a budget that covers the
// whole graph), which halves the budget until the interval, re-split, fits
// in pieces. Every one must replay to the fault-free vertex vectors
// bit for bit, on P, P′ and tiered P′, with 1, 2 and 3 workers; and after
// every sub-iteration attempt, failed or not, no page pin and no worker
// sub-iteration manager is left.
func TestRecoveryUnderParallelLoad(t *testing.T) {
	p, p2, err := BuildPrograms()
	if err != nil {
		t.Fatal(err)
	}
	type setup struct {
		sg        *ShardedGraph
		budget    int64
		intervals map[[2]int]bool
		want      []float64 // fault-free vertex vector
	}
	newSetup := func(v, e int, budget int64) setup {
		s := setup{sg: Shard(datagen.PowerLawGraph(v, e, 7), 4, false), budget: budget, intervals: map[[2]int]bool{}}
		for _, iv := range s.sg.Intervals(budget / bytesPerEdge) {
			s.intervals[iv] = true
		}
		_, s.want, err = RunProgram(p, 48<<20, s.sg, Config{App: PageRank, Workers: 2, Iterations: 3, MemoryBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	injected, exhausted := newSetup(300, 3000, 64<<10), newSetup(1000, 20000, 1<<20)

	legs := []struct {
		name   string
		prog   *ir.Program
		tiered bool
	}{{"P", p, false}, {"P'", p2, false}, {"P'/tiered", p2, true}}
	cases := []struct {
		name    string
		p, p2   faults.Config // the injected fault on P and on P′
		exhaust bool          // no injection: P′ untiered and P run out for real
	}{
		// Early enough to land in the first sub-iteration's build whichever
		// worker draws which chunk (the allocation counters are global).
		{name: "page-acquire", p2: faults.Config{Seed: 9, PageAt: 6}},
		{name: "heap-alloc", p: faults.Config{Seed: 5, AllocAt: 3}},
		{name: "worker-crash", p: faults.Config{Seed: 21, Crashes: 1}, p2: faults.Config{Seed: 21, Crashes: 1}},
		{name: "budget-halving", exhaust: true},
	}
	for _, leg := range legs {
		for _, tc := range cases {
			fc, s, heapSize := tc.p, injected, 48<<20
			if leg.prog.Transformed {
				fc = tc.p2
			}
			if tc.exhaust {
				// A page quota does not bind a tiered store: it spills.
				if leg.tiered {
					continue
				}
				s, heapSize = exhausted, 1<<20
				if leg.prog.Transformed {
					heapSize = 48 << 20
				}
			} else if fc == (faults.Config{}) {
				continue
			}
			for workers := 1; workers <= 3; workers++ {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", leg.name, tc.name, workers), func(t *testing.T) {
					fc := fc
					vmCfg := vm.Config{HeapSize: heapSize, Faults: faults.New(&fc)}
					if leg.tiered {
						vmCfg.Tiering = &offheap.TierConfig{Dir: t.TempDir(), HighWater: 2, LowWater: 1}
					}
					machine, err := vm.New(leg.prog, vmCfg)
					if err != nil {
						t.Fatal(err)
					}
					if tc.exhaust && machine.RT != nil {
						machine.RT.SetPageQuota(16)
					}
					var failed []error
					inBuild, resplit := false, false
					met, vals, err := run(machine, s.sg, Config{App: PageRank, Workers: workers, Iterations: 3, MemoryBudget: s.budget},
						func(iv [2]int, err error) {
							if err != nil {
								failed = append(failed, err)
								inBuild = inBuild || strings.HasPrefix(err.Error(), "buildRange ")
							}
							resplit = resplit || err == nil && !s.intervals[iv]
							rt := machine.RT
							if rt == nil {
								return
							}
							// Root scope, the main thread's default and
							// iteration managers, one default per worker.
							if live := rt.LiveManagers(); live != 3+workers {
								t.Errorf("after sub-iteration %v: %d live page managers, want %d", iv, live, 3+workers)
							}
							// Tiered, the main thread's default manager keeps its
							// bump page — the vertex-program record's — pinned;
							// any other pin is a leak.
							want := int64(0)
							if leg.tiered {
								want = 1
							}
							if pins := rt.Pins(); pins != want {
								t.Errorf("after sub-iteration %v: %d pins, want %d", iv, pins, want)
							}
						})
					if err != nil {
						t.Fatalf("faulty run: %v", err)
					}
					for v := range s.want {
						if vals[v] != s.want[v] {
							t.Fatalf("vertex %d: %v, fault-free %v", v, vals[v], s.want[v])
						}
					}
					if !inBuild {
						t.Fatalf("no failure inside a worker's buildRange: %v", failed)
					}
					rec := met.Obs.Counters
					if fc.Crashes > 0 {
						if rec[obs.CtrCrashes] != 1 || rec[obs.CtrWorkerRestarts] != int64(workers) {
							t.Errorf("crash not recovered as one crash and a new fleet: %v", rec)
						}
					} else if rec[obs.CtrOOMRecoveries] < 1 || rec[obs.CtrBudgetHalvings] != rec[obs.CtrOOMRecoveries] {
						t.Errorf("memory exhaustion not recovered by halving: %v", rec)
					}
					if tc.exhaust && !resplit {
						t.Errorf("no interval was re-split and replayed in pieces: %v", rec)
					}
				})
			}
		}
	}
}
