package gps

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/faults"
	"repro/internal/ir"
	"repro/internal/obs"
)

var cachedP, cachedP2 *ir.Program

func programs(t *testing.T) (*ir.Program, *ir.Program) {
	t.Helper()
	if cachedP == nil {
		p, p2, err := BuildPrograms()
		if err != nil {
			t.Fatal(err)
		}
		cachedP, cachedP2 = p, p2
	}
	return cachedP, cachedP2
}

// refPageRank computes BSP PageRank the way the engine schedules it.
func refPageRank(g *datagen.Graph, steps int) []float64 {
	vals := make([]float64, g.NumVertices)
	for i := range vals {
		vals[i] = 1.0
	}
	adj := make([][]int32, g.NumVertices)
	for i, s := range g.Src {
		adj[s] = append(adj[s], g.Dst[i])
	}
	for s := 0; s < steps; s++ {
		// Messages emitted at step s-1 are consumed at step s (>0).
		if s > 0 {
			incoming := make([]float64, g.NumVertices)
			for v := 0; v < g.NumVertices; v++ {
				if d := len(adj[v]); d > 0 {
					share := vals[v] / float64(d)
					for _, t := range adj[v] {
						incoming[t] += share
					}
				}
			}
			for v := range vals {
				vals[v] = 0.15 + 0.85*incoming[v]
			}
		}
	}
	return vals
}

func TestPageRankBothProgramsMatchReference(t *testing.T) {
	p, p2 := programs(t)
	g := datagen.PowerLawGraph(300, 2500, 5)
	cfg := Config{App: PageRank, Nodes: 3, HeapPerNode: 16 << 20, Supersteps: 4}
	resP, err := Run(p, g, cfg)
	if err != nil {
		t.Fatalf("P: %v", err)
	}
	resP2, err := Run(p2, g, cfg)
	if err != nil {
		t.Fatalf("P': %v", err)
	}
	// BSP emission order differs per node arrival order, but sums are the
	// same set of float64 additions in potentially different order; the
	// engine delivers messages per-frame deterministically, yet frame
	// arrival order may vary, so compare with tolerance.
	ref := refPageRank(g, 4)
	for v := range ref {
		if math.Abs(resP.Values[v]-ref[v]) > 1e-9 {
			t.Fatalf("P vertex %d: %v want %v", v, resP.Values[v], ref[v])
		}
		if math.Abs(resP2.Values[v]-ref[v]) > 1e-9 {
			t.Fatalf("P' vertex %d: %v want %v", v, resP2.Values[v], ref[v])
		}
		// P' (its data-path calls devirtualized, §3.6) against P is exact.
		if resP.Values[v] != resP2.Values[v] {
			t.Fatalf("vertex %d: P=%v P'=%v", v, resP.Values[v], resP2.Values[v])
		}
	}
}

func TestRandomWalkConservesWalkers(t *testing.T) {
	p, p2 := programs(t)
	g := datagen.PowerLawGraph(200, 2000, 9)
	cfg := Config{App: RandomWalk, Nodes: 2, HeapPerNode: 16 << 20, Supersteps: 6, Walkers: 50, Seed: 3}
	for name, prog := range map[string]*ir.Program{"P": p, "P'": p2} {
		res, err := Run(prog, g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Total visits = walkers * supersteps (each walker visits one
		// vertex per step).
		total := 0.0
		for _, v := range res.Values {
			total += v
		}
		want := float64(cfg.Walkers * cfg.Supersteps)
		if total != want {
			t.Fatalf("%s: total visits %v want %v", name, total, want)
		}
	}
}

func TestKMeansAssignsAllPoints(t *testing.T) {
	p, p2 := programs(t)
	g := datagen.PowerLawGraph(240, 2000, 13)
	cfg := Config{App: KMeans, Nodes: 3, HeapPerNode: 16 << 20, Supersteps: 5, K: 4}
	resP, err := Run(p, g, cfg)
	if err != nil {
		t.Fatalf("P: %v", err)
	}
	resP2, err := Run(p2, g, cfg)
	if err != nil {
		t.Fatalf("P': %v", err)
	}
	for v := range resP.Values {
		c := int(resP.Values[v])
		if c < 0 || c >= cfg.K {
			t.Fatalf("P: vertex %d assigned to cluster %d", v, c)
		}
	}
	if len(resP.Centroids) != cfg.K {
		t.Fatalf("got %d centroids", len(resP.Centroids))
	}
	// The master adds the partial sums in sender order, so P and P′
	// agree to the bit.
	sameBits(t, "P' against P", resP, resP2)
}

func TestGPSGCProfileModest(t *testing.T) {
	// §4.3: GPS's primitive-array-heavy design keeps GC small; both
	// programs should complete with few full collections at this scale.
	p, _ := programs(t)
	g := datagen.PowerLawGraph(500, 6000, 21)
	res, err := Run(p, g, Config{App: PageRank, Nodes: 2, HeapPerNode: 12 << 20, Supersteps: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.ET == 0 {
		t.Fatal("no time measured")
	}
	if res.GT > res.ET {
		t.Fatalf("GC time %v exceeds run time %v", res.GT, res.ET)
	}
}

// TestPageRankFaultMatrix runs PageRank under each fault class (and all of
// them combined) and asserts the results are bit-identical to a fault-free
// run: retries, dedup, canonical barrier ordering, and checkpoint/replay
// must make injected faults invisible to the computation.
func TestPageRankFaultMatrix(t *testing.T) {
	faultMatrix(t, datagen.PowerLawGraph(250, 2000, 7),
		Config{App: PageRank, Nodes: 3, HeapPerNode: 16 << 20, Supersteps: 4},
		[]faultCase{
			{"drop", "drop=0.1,seed=11"},
			{"dup", "dup=0.15,seed=12"},
			{"delay", "delay=2ms,delayp=0.2,seed=13"},
			{"reorder", "reorder=0.3,seed=14"},
			{"crash", "crash=1,seed=15"},
			{"all", "drop=0.05,dup=0.1,delay=1ms,delayp=0.1,reorder=0.1,crash=1,seed=42"},
		})
}

// TestKMeansFaultMatrix is the same matrix for k-means: the master's
// centroids ride the checkpoint, and its sender-ordered reduce makes
// centroids and assignments bit-identical to the fault-free run. A
// k-means superstep sends one frame per node, so the per-frame
// probabilities run high enough for each fault class to fire.
func TestKMeansFaultMatrix(t *testing.T) {
	faultMatrix(t, datagen.PowerLawGraph(240, 2000, 13),
		Config{App: KMeans, Nodes: 3, HeapPerNode: 16 << 20, Supersteps: 4, K: 4},
		[]faultCase{
			{"drop", "drop=0.3,seed=11"},
			{"dup", "dup=0.5,seed=12"},
			{"delay", "delay=2ms,delayp=0.5,seed=13"},
			{"reorder", "reorder=0.5,seed=14"},
			{"crash", "crash=1,seed=15"},
			{"all", "drop=0.2,dup=0.5,delay=1ms,delayp=0.3,reorder=0.3,crash=1,seed=42"},
		})
}

type faultCase struct{ name, spec string }

// faultMatrix runs base fault-free and then under each fault case, on P
// and P′, and requires the faulty runs' results to be bit-identical and
// their recovery to be counted.
func faultMatrix(t *testing.T, g *datagen.Graph, base Config, cases []faultCase) {
	t.Helper()
	p, p2 := programs(t)
	for name, prog := range map[string]*ir.Program{"P": p, "P'": p2} {
		clean, err := Run(prog, g, base)
		if err != nil {
			t.Fatalf("%s fault-free: %v", name, err)
		}
		if rec := recoveryWork(clean.Obs); len(rec) > 0 {
			t.Fatalf("%s fault-free run reports recovery work: %v", name, rec)
		}
		for _, tc := range cases {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				fc, err := faults.Parse(tc.spec)
				if err != nil {
					t.Fatal(err)
				}
				cfg := base
				cfg.Faults = &fc
				res, err := Run(prog, g, cfg)
				if err != nil {
					t.Fatalf("faulty run: %v", err)
				}
				sameBits(t, "faulty", clean, res)
				rec := res.Obs.Counters
				if rec[obs.CtrCheckpoints] != int64(base.Supersteps) {
					t.Fatalf("checkpoints = %d, want one per superstep (%d)",
						rec[obs.CtrCheckpoints], base.Supersteps)
				}
				if fc.Drop > 0 && res.Net.Retries == 0 {
					t.Fatal("drop injection produced no retries")
				}
				if fc.Dup > 0 && res.Net.Deduped == 0 {
					t.Fatalf("dup injection produced no dedups: %+v", res.Net)
				}
				if fc.Crashes > 0 {
					if rec[obs.CtrCrashes] < 1 || rec[obs.CtrNodeRestarts] != rec[obs.CtrCrashes] ||
						rec[obs.CtrRestores] != rec[obs.CtrCrashes] {
						t.Fatalf("crash not reflected in recovery counters: %v", rec)
					}
				}
			})
		}
	}
}

// TestPageRankOOMNodeRecovers injects a single allocation failure on one
// node mid-run; the engine must restore from checkpoint, replay the
// superstep, and still converge to the fault-free answer.
func TestPageRankOOMNodeRecovers(t *testing.T) {
	p, _ := programs(t)
	g := datagen.PowerLawGraph(250, 2000, 7)
	base := Config{App: PageRank, Nodes: 3, HeapPerNode: 16 << 20, Supersteps: 4}
	clean, err := Run(p, g, base)
	if err != nil {
		t.Fatal(err)
	}
	// Fire the 2nd slow-path allocation on every node's injector stream:
	// past the initial partition build, inside a checkpointed superstep.
	fc := faults.Config{Seed: 3, AllocAt: 2}
	cfg := base
	cfg.Faults = &fc
	res, err := Run(p, g, cfg)
	if err != nil {
		t.Fatalf("run with injected alloc fault: %v", err)
	}
	for v := range clean.Values {
		if res.Values[v] != clean.Values[v] {
			t.Fatalf("vertex %d diverged after OOM recovery: %v vs %v",
				v, clean.Values[v], res.Values[v])
		}
	}
	if rec := res.Obs.Counters; rec[obs.CtrOOMRecoveries] < 1 || rec[obs.CtrRestores] != rec[obs.CtrOOMRecoveries] {
		t.Fatalf("expected one restore per OOM recovery: %v", rec)
	}
}

// TestRandomWalkCrashReplayBitIdentical is the fault-matrix case for the
// rng-cursor fix: RandomWalk recovery must be bit-identical — the exact
// same per-vertex visit counts as the fault-free run — not merely
// walker-conserving, because the checkpoint now carries each node's
// Sys.rand cursor and restore rewinds it.
func TestRandomWalkCrashReplayBitIdentical(t *testing.T) {
	p, p2 := programs(t)
	g := datagen.PowerLawGraph(200, 2000, 9)
	base := Config{App: RandomWalk, Nodes: 2, HeapPerNode: 16 << 20, Supersteps: 6, Walkers: 50, Seed: 3}
	for name, prog := range map[string]*ir.Program{"P": p, "P'": p2} {
		clean, err := Run(prog, g, base)
		if err != nil {
			t.Fatalf("%s fault-free: %v", name, err)
		}
		for _, spec := range []string{"crash=1,seed=15", "crash=2,seed=77"} {
			fc, err := faults.Parse(spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg := base
			cfg.Faults = &fc
			res, err := Run(prog, g, cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", name, spec, err)
			}
			if rec := res.Obs.Counters; rec[obs.CtrCrashes] < int64(fc.Crashes) {
				t.Fatalf("%s %s: planned crashes not fired: %v", name, spec, rec)
			}
			for v := range clean.Values {
				if res.Values[v] != clean.Values[v] {
					t.Fatalf("%s %s: vertex %d diverged: fault-free=%v faulty=%v",
						name, spec, v, clean.Values[v], res.Values[v])
				}
			}
		}
	}
}

// TestCheckpointRetentionBounded asserts the retention fix: a tolerant
// run holds at most one checkpoint at a time, dropping the superseded
// snapshot as each successor is taken.
func TestCheckpointRetentionBounded(t *testing.T) {
	p, _ := programs(t)
	g := datagen.PowerLawGraph(250, 2000, 7)
	fc := faults.Config{Seed: 15, Crashes: 1}
	cfg := Config{App: PageRank, Nodes: 3, HeapPerNode: 16 << 20, Supersteps: 4, Faults: &fc}
	res, err := Run(p, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every checkpoint but the final one must have been dropped.
	rec := res.Obs.Counters
	if want := rec[obs.CtrCheckpoints] - 1; rec[obs.CtrCheckpointsDropped] != want {
		t.Fatalf("checkpoints dropped = %d, want %d (of %d taken)",
			rec[obs.CtrCheckpointsDropped], want, rec[obs.CtrCheckpoints])
	}
}

// TestCrashRecoveryCountsOnce reads a 2-node PageRank crash recovery off
// the cluster registry: every recovery action is counted once per run,
// and the crashed node's restart does not take its share of the books
// with it.
func TestCrashRecoveryCountsOnce(t *testing.T) {
	p, _ := programs(t)
	g := datagen.PowerLawGraph(250, 2000, 7)
	fc := faults.Config{Seed: 15, Crashes: 1}
	cfg := Config{App: PageRank, Nodes: 2, HeapPerNode: 16 << 20, Supersteps: 4, Faults: &fc}
	res, err := Run(p, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		obs.CtrCheckpoints:        4,
		obs.CtrCheckpointBytes:    4 * 12 * int64(g.NumVertices),
		obs.CtrCheckpointsDropped: 3,
		obs.CtrCrashes:            1,
		obs.CtrNodeRestarts:       1,
		obs.CtrRestores:           1,
	}
	if got := recoveryWork(res.Obs); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovery counters = %v, want %v", got, want)
	}
	saves := 0
	for _, e := range res.Obs.Events {
		if e.Kind == obs.EvCheckpoint && e.Label == "save" {
			saves++
		}
	}
	if saves != 4*cfg.Nodes {
		t.Fatalf("%d checkpoint save events, want one per node per checkpoint (%d)", saves, 4*cfg.Nodes)
	}
	for id, snap := range res.NodeObs {
		if rec := recoveryWork(snap); len(rec) > 0 {
			t.Fatalf("node %d's registry counts recovery too: %v", id, rec)
		}
	}
}

// TestKMeansIsDeterministic runs k-means repeatedly with one seed: the
// master adds the partial sums in sender order, so every run gives the
// same centroid bits, at any node count.
func TestKMeansIsDeterministic(t *testing.T) {
	p, _ := programs(t)
	g := datagen.PowerLawGraph(2000, 20000, 13)
	for _, nodes := range []int{3, 8} {
		cfg := Config{App: KMeans, Nodes: nodes, HeapPerNode: 1 << 20, Supersteps: 5, K: 4}
		ref, err := Run(p, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for run := 1; run < 100; run++ {
			res, err := Run(p, g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, fmt.Sprintf("%d nodes, run %d", nodes, run), ref, res)
		}
	}
}

// sameBits fails unless got's values and centroids are bit-identical to
// want's.
func sameBits(t *testing.T, what string, want, got *Result) {
	t.Helper()
	for v := range want.Values {
		if math.Float64bits(got.Values[v]) != math.Float64bits(want.Values[v]) {
			t.Fatalf("%s: vertex %d = %v, want %v", what, v, got.Values[v], want.Values[v])
		}
	}
	if len(got.Centroids) != len(want.Centroids) {
		t.Fatalf("%s: %d centroids, want %d", what, len(got.Centroids), len(want.Centroids))
	}
	for c := range want.Centroids {
		for d := 0; d < 2; d++ {
			if math.Float64bits(got.Centroids[c][d]) != math.Float64bits(want.Centroids[c][d]) {
				t.Fatalf("%s: centroid %d = %v, want %v", what, c, got.Centroids[c], want.Centroids[c])
			}
		}
	}
}

// recoveryWork returns the nonzero recovery.* counters of a snapshot.
func recoveryWork(s obs.Snapshot) map[string]int64 {
	out := map[string]int64{}
	for name, v := range s.Counters {
		if strings.HasPrefix(name, "recovery.") && v != 0 {
			out[name] = v
		}
	}
	return out
}
