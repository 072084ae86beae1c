package graphchi

import (
	"math"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/faults"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/offheap"
	"repro/internal/vm"
)

func buildBoth(t *testing.T) (pVM, p2VM *vm.VM) {
	t.Helper()
	p, p2, err := BuildPrograms()
	if err != nil {
		t.Fatal(err)
	}
	mv, err := vm.New(p, vm.Config{HeapSize: 48 << 20})
	if err != nil {
		t.Fatal(err)
	}
	mv2, err := vm.New(p2, vm.Config{HeapSize: 48 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return mv, mv2
}

func TestShardingInvariants(t *testing.T) {
	g := datagen.PowerLawGraph(500, 5000, 42)
	sg := Shard(g, 8, false)
	if sg.NumEdges() != 5000 {
		t.Fatalf("edges %d", sg.NumEdges())
	}
	// InStart is a proper prefix sum over InDeg.
	var total int64
	for v := 0; v < sg.NumVertices; v++ {
		if sg.InStart[v] != total {
			t.Fatalf("InStart[%d]=%d want %d", v, sg.InStart[v], total)
		}
		total += int64(sg.InDeg[v])
	}
	if total != int64(len(sg.InSrc)) {
		t.Fatal("prefix sum mismatch")
	}
	// Shard bounds are monotone and cover the vertex range.
	if sg.ShardBounds[0] != 0 || sg.ShardBounds[len(sg.ShardBounds)-1] != sg.NumVertices {
		t.Fatal("shard bounds do not cover")
	}
	for i := 1; i < len(sg.ShardBounds); i++ {
		if sg.ShardBounds[i] < sg.ShardBounds[i-1] {
			t.Fatal("shard bounds not monotone")
		}
	}
}

func TestIntervalsRespectBudget(t *testing.T) {
	g := datagen.PowerLawGraph(1000, 20000, 1)
	sg := Shard(g, 8, false)
	ivs := sg.Intervals(1000)
	covered := 0
	for _, iv := range ivs {
		edges := sg.InStart[iv[1]] - sg.InStart[iv[0]]
		// A single vertex may exceed the budget; otherwise intervals obey
		// it.
		if iv[1]-iv[0] > 1 && edges > 1000 {
			t.Fatalf("interval %v has %d edges", iv, edges)
		}
		covered += iv[1] - iv[0]
	}
	if covered != sg.NumVertices {
		t.Fatalf("intervals cover %d of %d vertices", covered, sg.NumVertices)
	}
	// Smaller budget => at least as many intervals.
	if len(sg.Intervals(500)) < len(ivs) {
		t.Fatal("smaller budget produced fewer intervals")
	}
}

// referencePageRank computes PR in plain Go with the same update schedule
// (in-interval order, Jacobi-per-interval like the engine's per-interval
// extract/reload).
func referencePageRank(sg *ShardedGraph, iters int) []float64 {
	vals := make([]float64, sg.NumVertices)
	for i := range vals {
		vals[i] = 1.0
	}
	for it := 0; it < iters; it++ {
		contrib := make([]float64, sg.NumVertices)
		for v := range contrib {
			d := sg.OutDeg[v]
			if d == 0 {
				d = 1
			}
			contrib[v] = vals[v] / float64(d)
		}
		next := make([]float64, sg.NumVertices)
		for v := 0; v < sg.NumVertices; v++ {
			sum := 0.0
			for e := sg.InStart[v]; e < sg.InStart[v+1]; e++ {
				sum += contrib[sg.InSrc[e]]
			}
			next[v] = 0.15 + 0.85*sum
		}
		vals = next
	}
	return vals
}

func TestPageRankMatchesReferenceAndTransform(t *testing.T) {
	g := datagen.PowerLawGraph(300, 3000, 7)
	sg := Shard(g, 4, false)
	mv, mv2 := buildBoth(t)
	cfg := Config{App: PageRank, Workers: 2, Iterations: 3, MemoryBudget: 1 << 30}

	_, valsP, err := Run(mv, sg, cfg)
	if err != nil {
		t.Fatalf("P: %v", err)
	}
	_, valsP2, err := Run(mv2, sg, cfg)
	if err != nil {
		t.Fatalf("P': %v", err)
	}
	// P and P' agree bit for bit.
	for i := range valsP {
		if valsP[i] != valsP2[i] {
			t.Fatalf("vertex %d: P=%v P'=%v", i, valsP[i], valsP2[i])
		}
	}
	// With one interval (huge budget) the engine is exactly Jacobi.
	ref := referencePageRank(sg, 3)
	for i := range ref {
		if math.Abs(ref[i]-valsP[i]) > 1e-9 {
			t.Fatalf("vertex %d: ref=%v engine=%v", i, ref[i], valsP[i])
		}
	}
}

func TestConnectedComponentsConverges(t *testing.T) {
	g := datagen.PowerLawGraph(200, 1500, 3)
	sg := Shard(g, 4, true) // undirected
	mv, mv2 := buildBoth(t)
	cfg := Config{App: ConnectedComponents, Workers: 2, Iterations: 8, MemoryBudget: 1 << 30}
	_, valsP, err := Run(mv, sg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, valsP2, err := Run(mv2, sg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range valsP {
		if valsP[i] != valsP2[i] {
			t.Fatalf("vertex %d: P=%v P'=%v", i, valsP[i], valsP2[i])
		}
	}
	// Labels must be non-increasing versus initial IDs and a valid label.
	for i, l := range valsP {
		if l > float64(i) || l < 0 {
			t.Fatalf("vertex %d has label %v", i, l)
		}
	}
}

// referencePageRankScheduled models the engine's exact multi-interval
// schedule: within one iteration, an interval's in-edge values are read
// from the `values` array, which already contains the updates of earlier
// intervals — GraphChi's asynchronous update semantics.
func referencePageRankScheduled(sg *ShardedGraph, intervals [][2]int, iters int) []float64 {
	values := make([]float64, sg.NumVertices)
	for i := range values {
		values[i] = 1.0
	}
	for it := 0; it < iters; it++ {
		for _, iv := range intervals {
			a, b := iv[0], iv[1]
			next := make([]float64, b-a)
			for v := a; v < b; v++ {
				sum := 0.0
				for e := sg.InStart[v]; e < sg.InStart[v+1]; e++ {
					s := sg.InSrc[e]
					d := sg.OutDeg[s]
					if d == 0 {
						d = 1
					}
					sum += values[s] / float64(d)
				}
				next[v-a] = 0.15 + 0.85*sum
			}
			copy(values[a:b], next)
		}
	}
	return values
}

func TestMultiIntervalAsyncScheduleMatchesReference(t *testing.T) {
	g := datagen.PowerLawGraph(400, 5000, 17)
	sg := Shard(g, 4, false)
	budget := int64(64 << 10)
	cfg := Config{App: PageRank, Workers: 2, Iterations: 3, MemoryBudget: budget}
	intervals := sg.Intervals(budget / 48)
	if len(intervals) < 3 {
		t.Fatalf("want multiple intervals, got %d", len(intervals))
	}
	mv, mv2 := buildBoth(t)
	_, valsP, err := Run(mv, sg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, valsP2, err := Run(mv2, sg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := referencePageRankScheduled(sg, intervals, 3)
	for v := range ref {
		if math.Abs(valsP[v]-ref[v]) > 1e-9 {
			t.Fatalf("P vertex %d: %v want %v", v, valsP[v], ref[v])
		}
		if valsP[v] != valsP2[v] {
			t.Fatalf("P/P' diverge at vertex %d", v)
		}
	}
}

func TestObjectBoundOnGraphChi(t *testing.T) {
	// §4.1's claim, in miniature: P' allocates a bounded number of heap
	// objects for the data classes regardless of graph size, while P
	// allocates in proportion to edges.
	g := datagen.PowerLawGraph(400, 6000, 11)
	sg := Shard(g, 4, false)
	mv, mv2 := buildBoth(t)
	cfg := Config{App: PageRank, Workers: 2, Iterations: 2, MemoryBudget: 4 << 20}
	metP, _, err := Run(mv, sg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	metP2, _, err := Run(mv2, sg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if metP.DataObjects < int64(sg.NumEdges()) {
		t.Fatalf("P data objects = %d, want >= #edges %d", metP.DataObjects, sg.NumEdges())
	}
	// P': facades only — a few per thread per type.
	if metP2.DataObjects > 200 {
		t.Fatalf("P' data objects = %d, want bounded by pools", metP2.DataObjects)
	}
	if metP2.Records < int64(sg.NumEdges()) {
		t.Fatalf("P' records = %d, want >= #edges", metP2.Records)
	}
	// Page recycling: far fewer pages than sub-iterations' worth of data.
	if metP2.Pages > 2000 {
		t.Fatalf("pages created = %d", metP2.Pages)
	}
}

func TestVertexDegreePreprocessing(t *testing.T) {
	// The third profiled data class: VertexDegree records built through
	// the data path (GraphChi's degree-file preprocessing).
	mv, mv2 := buildBoth(t)
	for name, m := range map[string]*vm.VM{"P": mv, "P'": mv2} {
		th, err := m.NewThread(nil)
		if err != nil {
			t.Fatal(err)
		}
		d, err := th.InvokeStaticObj("GraphChiDriver", "degreeOf", vm.I(3), vm.I(9))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		in, err := th.GetField(d, "VertexDegree", "inDeg")
		if err != nil {
			t.Fatal(err)
		}
		out, err := th.GetField(d, "VertexDegree", "outDeg")
		if err != nil {
			t.Fatal(err)
		}
		if int32(in) != 3 || int32(out) != 9 {
			t.Fatalf("%s: degree record (%d,%d)", name, int32(in), int32(out))
		}
		th.FreeObj(d)
		th.Close()
	}
}

func TestSmallerBudgetMoreSubIterations(t *testing.T) {
	g := datagen.PowerLawGraph(300, 4000, 5)
	sg := Shard(g, 4, false)
	mv, _ := buildBoth(t)
	metBig, _, err := Run(mv, sg, Config{App: PageRank, Workers: 1, Iterations: 1, MemoryBudget: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	mv2, _ := buildBoth(t)
	metSmall, _, err := Run(mv2, sg, Config{App: PageRank, Workers: 1, Iterations: 1, MemoryBudget: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if metSmall.SubIters <= metBig.SubIters {
		t.Fatalf("budget did not increase sub-iterations: %d vs %d", metSmall.SubIters, metBig.SubIters)
	}
}

// TestFaultMatrixIntervalRecovery is the tentpole acceptance test: PR and
// CC, on both P and P', must converge bit-identically to fault-free runs
// under an injected worker crash (sub-iteration replayed from the shard
// with a rebuilt worker fleet), an injected heap OOM, and an injected
// page-store failure — the latter two walking the budget-halving
// degradation ladder. The shard plus the interval-boundary values are a
// complete checkpoint, so replay changes nothing observable but the
// recovery counters.
func TestFaultMatrixIntervalRecovery(t *testing.T) {
	p, p2, err := BuildPrograms()
	if err != nil {
		t.Fatal(err)
	}
	g := datagen.PowerLawGraph(300, 3000, 7)

	apps := []struct {
		app        App
		undirected bool
		iters      int
	}{
		{PageRank, false, 3},
		{ConnectedComponents, true, 6},
	}
	cases := []struct {
		name   string
		faults faults.Config
		only   string // restrict to one program ("" = both)
		tiered bool   // run with the disk tier at a tight watermark
	}{
		// Planned worker-thread crash mid-sub-iteration.
		{"crash", faults.Config{Seed: 21, Crashes: 1}, "", false},
		{"crash2", faults.Config{Seed: 97, Crashes: 2}, "", false},
		// Heap allocation failure past setup, inside interval work;
		// recovery halves the budget and re-splits the interval. Only P
		// allocates data objects on the managed heap per interval — P'
		// puts them in pages, so its slow-path heap allocations all
		// happen during setup.
		{"oom-alloc", faults.Config{Seed: 5, AllocAt: 8}, "P", false},
		// Off-heap page-acquire failure (P' allocates pages; P never does).
		{"oom-page", faults.Config{Seed: 9, PageAt: 8}, "P'", false},
		// Disk-tier promotion failure: a record access needs a spilled
		// page back and the read fails. It surfaces as ErrPageExhausted
		// through the accessor's recover rail and must ride the same
		// ladder — and the replay, re-reading the page from the spill
		// file, must still match the untiered fault-free run bit for bit.
		{"tier-load", faults.Config{Seed: 11, TierLoadAt: 1}, "P'", true},
	}

	for _, ac := range apps {
		// Small budget => several intervals per iteration, so the crash
		// plan has occasions to land on and the ladder has room to halve.
		base := Config{App: ac.app, Workers: 2, Iterations: ac.iters, MemoryBudget: 128 << 10}
		sg := Shard(g, 4, ac.undirected)
		for name, prog := range map[string]*ir.Program{"P": p, "P'": p2} {
			clean, cleanVals, err := RunProgram(prog, 48<<20, sg, base)
			if err != nil {
				t.Fatalf("%v/%s fault-free: %v", ac.app, name, err)
			}
			if rec := recoveryWork(clean.Obs); len(rec) > 0 {
				t.Fatalf("%v/%s fault-free run reports recovery work: %v", ac.app, name, rec)
			}
			for _, tc := range cases {
				if tc.only != "" && tc.only != name {
					continue
				}
				t.Run(ac.app.String()+"/"+name+"/"+tc.name, func(t *testing.T) {
					fc := tc.faults
					cfg := base
					cfg.Faults = &fc
					if tc.tiered {
						cfg.Tiering = &offheap.TierConfig{Dir: t.TempDir(), HighWater: 2, LowWater: 1}
					}
					met, vals, err := RunProgram(prog, 48<<20, sg, cfg)
					if err != nil {
						t.Fatalf("faulty run: %v", err)
					}
					if tc.tiered && met.PagesSpilled == 0 {
						t.Fatal("tiered case never spilled; the tier-load fault cannot have fired")
					}
					for v := range cleanVals {
						if vals[v] != cleanVals[v] {
							t.Fatalf("vertex %d diverged: fault-free=%v faulty=%v",
								v, cleanVals[v], vals[v])
						}
					}
					rec := met.Obs.Counters
					if rec[obs.CtrIntervalRetries] < 1 {
						t.Fatalf("no interval replayed: %v", rec)
					}
					if fc.Crashes > 0 {
						if rec[obs.CtrCrashes] < int64(fc.Crashes) || rec[obs.CtrWorkerRestarts] < int64(cfg.Workers) {
							t.Fatalf("crash not reflected in recovery counters: %v", rec)
						}
						// Each crash replays its sub-iteration once and
						// rebuilds the whole fleet once.
						if rec[obs.CtrIntervalRetries] != rec[obs.CtrCrashes] ||
							rec[obs.CtrWorkerRestarts] != rec[obs.CtrCrashes]*int64(cfg.Workers) {
							t.Fatalf("crash recovery miscounted: %v", rec)
						}
					}
					if fc.AllocAt > 0 || fc.PageAt > 0 || fc.TierLoadAt > 0 {
						if rec[obs.CtrOOMRecoveries] < 1 || rec[obs.CtrBudgetHalvings] < 1 {
							t.Fatalf("OOM degradation ladder not exercised: %v", rec)
						}
						// Every OOM replays its sub-iteration once at half
						// the budget; no crash is counted.
						if rec[obs.CtrIntervalRetries] != rec[obs.CtrOOMRecoveries] ||
							rec[obs.CtrBudgetHalvings] != rec[obs.CtrOOMRecoveries] || rec[obs.CtrCrashes] != 0 {
							t.Fatalf("OOM recovery miscounted: %v", rec)
						}
					}
				})
			}
		}
	}
}

// TestTieredPageRankAtScale is the tiering acceptance test: PageRank on
// P' at 10x the Table 2 bench size (20000 vertices / 300000 edges), with
// the DRAM watermark capping resident pages at 64 (2 MiB) — an order of
// magnitude below what the dataset's records occupy — must complete by
// spilling cold pages to disk, and produce values bit-identical to the
// DRAM-only run.
func TestTieredPageRankAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short")
	}
	_, p2, err := BuildPrograms()
	if err != nil {
		t.Fatal(err)
	}
	g := datagen.PowerLawGraph(20000, 300000, 42)
	sg := Shard(g, 10, false)
	cfg := Config{App: PageRank, Workers: 2, Iterations: 2, MemoryBudget: 8 << 20}

	_, ref, err := RunProgram(p2, 48<<20, sg, cfg)
	if err != nil {
		t.Fatalf("DRAM-only: %v", err)
	}

	tiered := cfg
	tiered.Tiering = &offheap.TierConfig{Dir: t.TempDir(), HighWater: 64, LowWater: 32}
	met, vals, err := RunProgram(p2, 48<<20, sg, tiered)
	if err != nil {
		t.Fatalf("tiered: %v", err)
	}
	for v := range ref {
		if vals[v] != ref[v] {
			t.Fatalf("vertex %d diverged: DRAM=%v tiered=%v", v, ref[v], vals[v])
		}
	}
	if met.PagesSpilled == 0 {
		t.Fatalf("DRAM cap of 64 pages never spilled (created %d, live hw %d)",
			met.Pages, met.PagesLiveHW)
	}
	if met.PagesPromoted == 0 {
		t.Fatal("no spilled page was ever promoted back; the data path never touched disk")
	}
	if c := met.Obs.Counters["offheap.pages_spilled"]; c != met.PagesSpilled {
		t.Fatalf("obs pages_spilled = %d, Metrics say %d", c, met.PagesSpilled)
	}
}

// TestBudgetLadderExhaustionIsOME: when the budget cannot halve any
// further (a single edge no longer fits), the engine reports a genuine
// OutOfMemoryError instead of looping.
func TestBudgetLadderExhaustionIsOME(t *testing.T) {
	p, _, err := BuildPrograms()
	if err != nil {
		t.Fatal(err)
	}
	g := datagen.PowerLawGraph(120, 1000, 3)
	sg := Shard(g, 4, false)
	// Fire an allocation failure on every slow-path allocation from #30
	// on: every replay re-fails, and the ladder must bottom out.
	fc := faults.Config{Seed: 7, AllocProb: 1, AllocAt: 0}
	cfg := Config{App: PageRank, Workers: 1, Iterations: 1,
		MemoryBudget: 96, Faults: &fc}
	_, _, err = RunProgram(p, 48<<20, sg, cfg)
	if err == nil {
		t.Fatal("run survived unrecoverable allocation failure")
	}
	if !vm.IsOOM(err) {
		t.Fatalf("want an out-of-memory classification, got: %v", err)
	}
}

// --- Shard / Intervals edge cases -----------------------------------------

// lineGraph builds v vertices where vertex 0 receives one in-edge from
// every other vertex (in-degree v-1) and the rest receive none.
func starGraph(v int) *datagen.Graph {
	g := &datagen.Graph{NumVertices: v,
		OutDeg: make([]int32, v), InDeg: make([]int32, v)}
	for s := 1; s < v; s++ {
		g.Src = append(g.Src, int32(s))
		g.Dst = append(g.Dst, 0)
		g.OutDeg[s]++
		g.InDeg[0]++
	}
	return g
}

func TestIntervalsHubVertexExceedsBudget(t *testing.T) {
	// Vertex 0's in-degree (9) alone exceeds the budget (3): it must still
	// get its own interval — it cannot be split — and every other interval
	// must respect the budget.
	sg := Shard(starGraph(10), 2, false)
	ivs := sg.Intervals(3)
	if len(ivs) == 0 {
		t.Fatal("no intervals")
	}
	if ivs[0] != [2]int{0, 1} {
		t.Fatalf("hub vertex not isolated: first interval %v", ivs[0])
	}
	for _, iv := range ivs[1:] {
		if edges := sg.InStart[iv[1]] - sg.InStart[iv[0]]; edges > 3 {
			t.Fatalf("interval %v has %d edges, budget 3", iv, edges)
		}
	}
	assertTiling(t, sg, ivs)
}

func TestShardMoreShardsThanVertices(t *testing.T) {
	g := datagen.PowerLawGraph(5, 20, 2)
	sg := Shard(g, 50, false)
	if len(sg.ShardBounds) != 51 {
		t.Fatalf("ShardBounds length %d, want nShards+1", len(sg.ShardBounds))
	}
	if sg.ShardBounds[0] != 0 || sg.ShardBounds[50] != 5 {
		t.Fatal("shard bounds do not cover the vertex range")
	}
	for i := 1; i < len(sg.ShardBounds); i++ {
		if sg.ShardBounds[i] < sg.ShardBounds[i-1] {
			t.Fatal("shard bounds not monotone")
		}
	}
}

func TestEmptyGraphHasNoIntervals(t *testing.T) {
	sg := Shard(&datagen.Graph{}, 4, false)
	if sg.NumEdges() != 0 || sg.NumVertices != 0 {
		t.Fatalf("empty graph sharded to %d vertices / %d edges", sg.NumVertices, sg.NumEdges())
	}
	if ivs := sg.Intervals(100); ivs != nil {
		t.Fatalf("empty graph produced intervals: %v", ivs)
	}
}

// assertTiling checks the interval invariant: the intervals cover
// [0, NumVertices) exactly once, in order, each non-empty.
func assertTiling(t *testing.T, sg *ShardedGraph, ivs [][2]int) {
	t.Helper()
	next := 0
	for _, iv := range ivs {
		if iv[0] != next {
			t.Fatalf("interval %v does not start at %d", iv, next)
		}
		if iv[1] <= iv[0] {
			t.Fatalf("empty interval %v", iv)
		}
		next = iv[1]
	}
	if next != sg.NumVertices {
		t.Fatalf("intervals end at %d, want %d", next, sg.NumVertices)
	}
}

func TestIntervalsTileExactlyOnce(t *testing.T) {
	g := datagen.PowerLawGraph(777, 9000, 13)
	sg := Shard(g, 6, false)
	for _, budget := range []int64{1, 7, 100, 1000, 1 << 40} {
		assertTiling(t, sg, sg.Intervals(budget))
	}
	// Sub-range splitting (the degradation ladder's entry point) tiles the
	// sub-range the same way.
	ivs := sg.IntervalsIn(100, 300, 50)
	next := 100
	for _, iv := range ivs {
		if iv[0] != next || iv[1] <= iv[0] {
			t.Fatalf("sub-range interval %v does not tile from %d", iv, next)
		}
		next = iv[1]
	}
	if next != 300 {
		t.Fatalf("sub-range intervals end at %d, want 300", next)
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
