package gps

import (
	"math"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/faults"
	"repro/internal/ir"
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
		if resP.Values[v] != resP2.Values[v] {
			t.Fatalf("vertex %d: P cluster %v, P' cluster %v", v, resP.Values[v], resP2.Values[v])
		}
	}
	if len(resP.Centroids) != cfg.K {
		t.Fatalf("got %d centroids", len(resP.Centroids))
	}
	for c := range resP.Centroids {
		if math.Abs(resP.Centroids[c][0]-resP2.Centroids[c][0]) > 1e-9 ||
			math.Abs(resP.Centroids[c][1]-resP2.Centroids[c][1]) > 1e-9 {
			t.Fatalf("centroid %d differs between P and P'", c)
		}
	}
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
	p, p2 := programs(t)
	g := datagen.PowerLawGraph(250, 2000, 7)
	base := Config{App: PageRank, Nodes: 3, HeapPerNode: 16 << 20, Supersteps: 4}

	cases := []struct {
		name string
		spec string
	}{
		{"drop", "drop=0.1,seed=11"},
		{"dup", "dup=0.15,seed=12"},
		{"delay", "delay=2ms,delayp=0.2,seed=13"},
		{"reorder", "reorder=0.3,seed=14"},
		{"crash", "crash=1,seed=15"},
		{"all", "drop=0.05,dup=0.1,delay=1ms,delayp=0.1,reorder=0.1,crash=1,seed=42"},
	}
	for name, prog := range map[string]*ir.Program{"P": p, "P'": p2} {
		clean, err := Run(prog, g, base)
		if err != nil {
			t.Fatalf("%s fault-free: %v", name, err)
		}
		if clean.Recovery != (Recovery{}) {
			t.Fatalf("%s fault-free run reports recovery work: %+v", name, clean.Recovery)
		}
		for _, tc := range cases {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				fc, err := faults.Parse(tc.spec)
				if err != nil {
					t.Fatal(err)
				}
				cfg := base
				cfg.Faults = &fc
				cfg.RecvTimeout = 5 * time.Second
				res, err := Run(prog, g, cfg)
				if err != nil {
					t.Fatalf("faulty run: %v", err)
				}
				for v := range clean.Values {
					if res.Values[v] != clean.Values[v] {
						t.Fatalf("vertex %d diverged: fault-free=%v faulty=%v",
							v, clean.Values[v], res.Values[v])
					}
				}
				if res.Recovery.Checkpoints != int64(base.Supersteps) {
					t.Fatalf("checkpoints = %d, want one per superstep (%d)",
						res.Recovery.Checkpoints, base.Supersteps)
				}
				if fc.Drop > 0 && res.Net.Retries == 0 {
					t.Fatal("drop injection produced no retries")
				}
				if fc.Dup > 0 && res.Net.Deduped == 0 {
					t.Fatal("dup injection produced no dedups")
				}
				if fc.Crashes > 0 {
					if res.Recovery.Crashes < 1 || res.Recovery.NodeRestarts < 1 ||
						res.Recovery.Restores < 1 {
						t.Fatalf("crash not reflected in recovery stats: %+v", res.Recovery)
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
	if res.Recovery.OOMRecoveries < 1 || res.Recovery.Restores < 1 {
		t.Fatalf("expected OOM recovery in stats: %+v", res.Recovery)
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
			cfg.RecvTimeout = 5 * time.Second
			res, err := Run(prog, g, cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", name, spec, err)
			}
			if res.Recovery.Crashes < int64(fc.Crashes) {
				t.Fatalf("%s %s: planned crashes not fired: %+v", name, spec, res.Recovery)
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
	cfg := Config{App: PageRank, Nodes: 3, HeapPerNode: 16 << 20, Supersteps: 4,
		Faults: &fc, RecvTimeout: 5 * time.Second}
	res, err := Run(p, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery.RetainedCheckpointsHW > 1 {
		t.Fatalf("retained-checkpoint high-water = %d, want <= 1", res.Recovery.RetainedCheckpointsHW)
	}
	// Every checkpoint but the final one must have been dropped.
	if want := res.Recovery.Checkpoints - 1; res.Recovery.CheckpointsDropped != want {
		t.Fatalf("checkpoints dropped = %d, want %d (of %d taken)",
			res.Recovery.CheckpointsDropped, want, res.Recovery.Checkpoints)
	}
}

// TestCheckpointIntervalReplays runs with checkpoints every 2 supersteps:
// a crash rewinds more than one superstep to the last checkpoint, the
// intervening supersteps replay deterministically, and the result is
// still bit-identical to the fault-free run.
func TestCheckpointIntervalReplays(t *testing.T) {
	p, _ := programs(t)
	g := datagen.PowerLawGraph(250, 2000, 7)
	base := Config{App: PageRank, Nodes: 3, HeapPerNode: 16 << 20, Supersteps: 4}
	clean, err := Run(p, g, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range []App{PageRank, RandomWalk} {
		fc := faults.Config{Seed: 15, Crashes: 1}
		cfg := base
		cfg.App = app
		cfg.CheckpointInterval = 2
		cfg.Faults = &fc
		cfg.RecvTimeout = 5 * time.Second
		if app == RandomWalk {
			cfg.Walkers = 50
			cfg.Seed = 3
		}
		res, err := Run(p, g, cfg)
		if err != nil {
			t.Fatalf("%v: %v", app, err)
		}
		// Supersteps 0 and 2 checkpoint; the crash replays from one of
		// them without re-taking it.
		if res.Recovery.Checkpoints != 2 {
			t.Fatalf("%v: checkpoints = %d, want 2 (every 2nd superstep)", app, res.Recovery.Checkpoints)
		}
		if res.Recovery.CheckpointsDropped != 1 {
			t.Fatalf("%v: checkpoints dropped = %d, want 1", app, res.Recovery.CheckpointsDropped)
		}
		if res.Recovery.RetainedCheckpointsHW > 1 {
			t.Fatalf("%v: retained high-water = %d, want <= 1", app, res.Recovery.RetainedCheckpointsHW)
		}
		if res.Recovery.Crashes != 1 || res.Recovery.Restores < 1 {
			t.Fatalf("%v: crash recovery missing from stats: %+v", app, res.Recovery)
		}
		if app == PageRank {
			for v := range clean.Values {
				if res.Values[v] != clean.Values[v] {
					t.Fatalf("vertex %d diverged under interval checkpointing: %v vs %v",
						v, clean.Values[v], res.Values[v])
				}
			}
		} else {
			cleanRW := cfg
			cleanRW.Faults = nil
			cleanRW.CheckpointInterval = 0
			ref, err := Run(p, g, cleanRW)
			if err != nil {
				t.Fatal(err)
			}
			for v := range ref.Values {
				if res.Values[v] != ref.Values[v] {
					t.Fatalf("RW vertex %d diverged under interval checkpointing: %v vs %v",
						v, ref.Values[v], res.Values[v])
				}
			}
		}
	}
}
