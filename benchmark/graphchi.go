package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/datagen"
	"repro/internal/graphchi"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/offheap"
	"repro/internal/vm"
)

// The Table 2 configuration at its tight "4g" row: the synthetic
// twitter-like graph, 20 shards, a 16 MiB heap, load budget heap/2.
const (
	chiVertices = 20000
	chiEdges    = 300000
	chiShards   = 20
	chiHeap     = 16 << 20
	chiIters    = 2
	tierHigh    = 64
	tierLow     = 32
)

var chiApps = []graphchi.App{graphchi.PageRank, graphchi.ConnectedComponents}

// chiInstance runs PageRank then Connected Components on one program.
type chiInstance struct {
	name    string
	prog    *ir.Program
	twin    *ir.Program // the other of (P, P'): the reference vertex vectors
	tiered  bool
	shards  map[graphchi.App]*graphchi.ShardedGraph
	workdir string
	seed    uint64
	digest  string // vertex-vector digest every unit must reproduce
	spillID int
}

func graphchiWorkload(name, why string, transformed, tiered bool) workload {
	return workload{name: name, why: why, setup: func(o options) (instance, map[string]float64, error) {
		start := time.Now()
		g := datagen.PowerLawGraph(chiVertices, chiEdges, o.seed)
		gen := time.Since(start)
		start = time.Now()
		shards := map[graphchi.App]*graphchi.ShardedGraph{
			graphchi.PageRank:            graphchi.Shard(g, chiShards, false),
			graphchi.ConnectedComponents: graphchi.Shard(g, chiShards, true),
		}
		shard := time.Since(start)
		p, p2, err := graphchi.BuildPrograms()
		if err != nil {
			return nil, nil, err
		}
		inst := &chiInstance{name: name, prog: p, twin: p2, tiered: tiered, shards: shards, workdir: o.workdir, seed: o.seed}
		if transformed {
			inst.prog, inst.twin = p2, p
		}
		return inst, map[string]float64{"datagen.gen_s": gen.Seconds(), "graphchi.shard_s": shard.Seconds()}, nil
	}}
}

// runApps runs both applications on prog and returns the digest of the two
// vertex vectors. visit, when non-nil, sees each run's measurements.
func (c *chiInstance) runApps(tr *tracer, root, unit int, prog *ir.Program, tiered bool,
	visit func(build, run time.Duration, runSpan int, m *vm.VM, met *graphchi.Metrics)) (string, error) {
	h := sha256.New()
	for _, app := range chiApps {
		cfg := vm.Config{HeapSize: chiHeap}
		if tiered {
			// The spill file lives until the VM is garbage; give each run
			// its own directory so nothing accumulates in the work dir.
			c.spillID++
			dir := fmt.Sprintf("%s/spill-%s-%d", c.workdir, c.name, c.spillID)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return "", err
			}
			defer os.RemoveAll(dir)
			cfg.Tiering = &offheap.TierConfig{Dir: dir, HighWater: tierHigh, LowWater: tierLow}
		}
		id := tr.begin(root, unit, "vm.New")
		start := time.Now()
		machine, err := vm.New(prog, cfg)
		build := time.Since(start)
		tr.end(id)
		if err != nil {
			return "", err
		}
		id = tr.begin(root, unit, "graphchi.Run")
		start = time.Now()
		met, values, err := graphchi.Run(machine, c.shards[app], graphchi.Config{
			App: app, Workers: workers(), Iterations: chiIters, MemoryBudget: chiHeap / 2,
		})
		run := time.Since(start)
		tr.end(id)
		if err != nil {
			return "", fmt.Errorf("%s: %w", app, err)
		}
		if visit != nil {
			visit(build, run, id, machine, met)
		}
		var b [8]byte
		for _, v := range values {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func histSeconds(snap obs.Snapshot, name string) float64 {
	return time.Duration(snap.Histograms[name].Sum).Seconds()
}

func (c *chiInstance) step(tr *tracer, unit int) (*stepResult, error) {
	runtime.GC() // start every unit from a collected Go heap, untimed
	sum := make(map[string]float64)
	var peakPM, peakHeap, peakNative, liveHW float64
	var edges int64
	var engine time.Duration
	root := tr.begin(-1, unit, unitSpan)
	start := time.Now()
	digest, err := c.runApps(tr, root, unit, c.prog, c.tiered,
		func(build, run time.Duration, runSpan int, m *vm.VM, met *graphchi.Metrics) {
			hs := m.Heap.Stats()
			spill := time.Duration(met.Obs.Histograms[obs.HistSpillStall].Sum)
			promote := time.Duration(met.Obs.Histograms[obs.HistPromoteStall].Sum)
			tr.synth(runSpan, "heap.gc", 0, met.GT)
			tr.synth(runSpan, "offheap.spill_stall", met.GT, spill)
			tr.synth(runSpan, "offheap.promote_stall", met.GT+spill, promote)
			self := run - met.GT - spill - promote
			if self < 0 {
				self = 0
			}
			sum["vm.build_s"] += build.Seconds()
			sum["vm.run_self_s"] += self.Seconds()
			sum["vm.instructions"] += float64(met.Obs.Counters[obs.CtrInstructions])
			sum["vm.boundary_crossings"] += float64(met.Obs.Counters[obs.CtrBoundaryCalls])
			sum["vm.facade_pool_hits"] += float64(met.Obs.Counters[obs.CtrFacadePoolHits])
			sum["heap.gc_s"] += met.GT.Seconds()
			sum["heap.safepoint_wait_s"] += histSeconds(met.Obs, obs.HistSafepointWait)
			sum["heap.minor_gcs"] += float64(met.MinorGCs)
			sum["heap.full_gcs"] += float64(met.FullGCs)
			sum["heap.alloc_bytes"] += float64(hs.AllocBytes)
			sum["heap.alloc_objects"] += float64(hs.AllocObjects)
			sum["heap.promoted"] += float64(hs.Promoted)
			sum["offheap.pages_created"] += float64(met.Pages)
			sum["offheap.records"] += float64(met.Records)
			sum["offheap.pages_spilled"] += float64(met.PagesSpilled)
			sum["offheap.pages_promoted"] += float64(met.PagesPromoted)
			sum["offheap.spill_stall_s"] += spill.Seconds()
			sum["offheap.promote_stall_s"] += promote.Seconds()
			sum["offheap.page_acquires"] += float64(met.Obs.Counters[obs.CtrPageAcquires])
			if m.RT != nil {
				sum["offheap.pages_recycled"] += float64(m.RT.Stats().PagesRecycled)
			}
			sum["graphchi.load_s"] += met.LT.Seconds()
			sum["graphchi.update_s"] += met.UT.Seconds()
			sum["graphchi.sub_iters"] += float64(met.SubIters)
			edges += met.Edges
			engine += met.ET
			peakPM = math.Max(peakPM, mb(met.PM))
			peakHeap = math.Max(peakHeap, mb(met.HeapPeak))
			peakNative = math.Max(peakNative, mb(met.NativePeak))
			liveHW = math.Max(liveHW, float64(met.PagesLiveHW))
		})
	wall := time.Since(start).Seconds()
	tr.end(root)
	if err != nil {
		return nil, err
	}
	res := &stepResult{wall: wall, durs: []float64{wall}, ends: []float64{wall}, peakMB: peakPM}
	if c.digest == "" {
		c.digest = digest
	} else if digest != c.digest {
		res.fails = append(res.fails, fmt.Sprintf("%s unit %d: vertex vectors %s, first unit gave %s", c.name, unit, digest, c.digest))
	}
	if c.tiered && sum["offheap.pages_spilled"] == 0 {
		res.fails = append(res.fails, fmt.Sprintf("%s unit %d: tiered run never spilled (watermark %d/%d)", c.name, unit, tierHigh, tierLow))
	}
	if tr == nil {
		return res, nil
	}
	res.obs = engineObs(sum, wall, peakHeap, peakNative, liveHW)
	res.obs["graphchi.edges_per_s"] = []float64{float64(edges) / engine.Seconds()}
	return res, nil
}

// engineObs turns the readings one engine unit summed over its runs into
// that unit's observations, adding the ratios and peaks. The page-acquire
// count in sum is only the recycle ratio's base and is not reported.
func engineObs(sum map[string]float64, wall, peakHeap, peakNative, liveHW float64) map[string][]float64 {
	acquires := sum["offheap.page_acquires"]
	delete(sum, "offheap.page_acquires")
	out := make(map[string][]float64, len(sum)+8)
	for name, v := range sum {
		out[name] = []float64{v}
	}
	out["heap.gc_share"] = []float64{sum["heap.gc_s"] / wall}
	out["heap.peak_mb"] = []float64{peakHeap}
	out["offheap.peak_mb"] = []float64{peakNative}
	out["offheap.pages_live_hw"] = []float64{liveHW}
	if acquires > 0 {
		out["offheap.recycle_ratio"] = []float64{sum["offheap.pages_recycled"] / acquires}
	}
	return out
}

// finish runs the twin program once, untiered: P and P' must agree to the
// bit, and at the default seed both must match the committed digest.
func (c *chiInstance) finish(tr *tracer) ([]string, map[string][]float64) {
	var fails []string
	id := tr.begin(-1, -1, "verify.twin")
	ref, err := c.runApps(nil, -1, -1, c.twin, false, nil)
	tr.end(id)
	switch {
	case err != nil:
		fails = append(fails, fmt.Sprintf("%s: reference run: %v", c.name, err))
	case ref != c.digest:
		fails = append(fails, fmt.Sprintf("%s: vertex vectors %s differ from the twin program's %s", c.name, c.digest, ref))
	}
	if msg := checkExpected("graphchi/vertex_vectors", c.seed, c.digest); msg != "" {
		fails = append(fails, c.name+": "+msg)
	}
	return fails, nil
}

func (c *chiInstance) close() map[string]float64 { return nil }

func mb(bytes int64) float64 { return float64(bytes) / (1 << 20) }
