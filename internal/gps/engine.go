package gps

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/faults"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/vm"
)

// App selects the vertex program (§4.3 evaluates PR, k-means, and random
// walk).
type App int

// Applications.
const (
	PageRank App = iota
	KMeans
	RandomWalk
)

func (a App) String() string {
	switch a {
	case PageRank:
		return "PR"
	case KMeans:
		return "k-means"
	default:
		return "random-walk"
	}
}

// Config drives one GPS job.
type Config struct {
	App         App
	Nodes       int
	HeapPerNode int
	Supersteps  int
	K           int // k-means clusters
	Walkers     int // random-walk walkers
	Seed        int64

	// Faults configures deterministic fault injection (nil disables).
	// When any fault is enabled the engine checkpoints vertex state at
	// every superstep boundary so a crashed or OOM-killed node can be
	// rebuilt and the superstep replayed from its own start. Only the
	// newest checkpoint is retained.
	Faults *faults.Config
}

// Result reports one run (§4.3's ET/GT/space comparison).
type Result struct {
	ET         time.Duration
	GT         time.Duration
	PM         int64 // worst per-node heap+native peak
	HeapPeak   int64
	NativePeak int64
	MinorGCs   int64
	FullGCs    int64
	Values     []float64 // final vertex values / point assignments
	Centroids  [][2]float64

	// Net reports the network's traffic and injected misbehaviour.
	Net cluster.NetStats

	// Obs is the cluster registry's snapshot: the run's recovery.*
	// counters and its checkpoint and recovery events. A fault-free run
	// has none.
	Obs obs.Snapshot

	// NodeObs holds each node's observability snapshot (indexed by node
	// ID); supersteps appear as EvIteration events in each.
	NodeObs []obs.Snapshot
}

// partition is one node's share of the graph.
type partition struct {
	ids      []int32
	vals     []float64
	adjIndex []int32
	adj      []int32
	// globalToLocal maps a global vertex ID it owns to its local index.
	local map[int32]int32
}

// partitionGraph assigns vertices round-robin (GPS's default) and builds
// per-node flat adjacency.
func partitionGraph(g *datagen.Graph, nodes int, initVal func(int) float64) []*partition {
	parts := make([]*partition, nodes)
	for i := range parts {
		parts[i] = &partition{local: make(map[int32]int32)}
	}
	// Out-adjacency per vertex.
	adjStart := make([]int32, g.NumVertices+1)
	for _, s := range g.Src {
		adjStart[s+1]++
	}
	for v := 1; v <= g.NumVertices; v++ {
		adjStart[v] += adjStart[v-1]
	}
	adj := make([]int32, len(g.Src))
	cursor := make([]int32, g.NumVertices)
	for i, s := range g.Src {
		adj[adjStart[s]+cursor[s]] = g.Dst[i]
		cursor[s]++
	}
	for v := 0; v < g.NumVertices; v++ {
		p := parts[v%nodes]
		p.local[int32(v)] = int32(len(p.ids))
		p.ids = append(p.ids, int32(v))
		p.vals = append(p.vals, initVal(v))
		p.adjIndex = append(p.adjIndex, int32(len(p.adj)))
		p.adj = append(p.adj, adj[adjStart[v]:adjStart[v+1]]...)
	}
	for i := range parts {
		parts[i].adjIndex = append(parts[i].adjIndex, int32(len(parts[i].adj)))
	}
	return parts
}

// nodeState is the per-node VM-side state.
type nodeState struct {
	part     *partition
	vm       *vm.VM // incarnation the handles below belong to
	built    bool
	vsObj    vm.Obj // GPSVertex[] (k-means: KPoint[])
	adjObj   vm.Obj // NilObj for k-means, as are the two buffers
	outT     vm.Obj // reusable out-target buffer
	outV     vm.Obj // reusable out-value buffer
	incoming [][]byte
}

// msg frame format: n × (u32 globalTarget, f64 value). Checkpoints reuse
// the exact same codec: a node's vertex state serializes to n × (u32
// globalID, f64 value). A k-means sums frame is 3k f64s (sum x, sum y,
// count per cluster), and a checkpoint's centroids are 2k (every x, then
// every y).

// checkpoint is the superstep-boundary recovery state: every node's
// codec-encoded vertex values, the frames it was about to consume, and
// its VM rng cursor (the Sys.rand stream RandomWalk draws from — without
// it a replay would re-roll different walks and recovery would only be
// walker-conserving, not bit-identical), plus the k-means master's
// centroids. A k-means node holds nothing a superstep reads: every
// superstep re-assigns every point from the centroids. Restoring the
// checkpoint and re-running its superstep replays the computation exactly.
type checkpoint struct {
	step     int
	vals     [][]byte   // per node: n × (u32 id, f64 value); nil for k-means
	incoming [][][]byte // per node: the superstep's undelivered frames
	rng      []uint64   // per node: Sys.rand cursor (vm rng state)
	cents    []byte     // k-means: the centroids; nil otherwise
}

// maxReplays bounds recovery attempts for a single superstep, so a fault
// storm degenerates into an error instead of an infinite replay loop.
const maxReplays = 4

// engine carries one run's cluster-side state. Recovery is counted in
// the cluster's registry.
type engine struct {
	cl     *cluster.Cluster
	cfg    Config
	g      *datagen.Graph
	parts  []*partition
	states []*nodeState
	plan   faults.Plan
	ckpt   *checkpoint

	// cents are the k-means centroids (every x, then every y): the global
	// object GPS's master computes between supersteps and broadcasts.
	cents []float64
}

// Run executes the job and returns metrics plus final values (vertex
// values for PR/RW, assignments for k-means).
func Run(prog *ir.Program, g *datagen.Graph, cfg Config) (_ *Result, err error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 2
	}
	if cfg.Supersteps <= 0 {
		cfg.Supersteps = 5
	}
	if cfg.K <= 0 {
		cfg.K = 4
	}
	if cfg.Walkers <= 0 {
		cfg.Walkers = g.NumVertices / 4
	}
	cl, err := cluster.New(prog, cluster.Config{
		NumNodes:    cfg.Nodes,
		HeapPerNode: cfg.HeapPerNode,
		RandSeed:    cfg.Seed,
		Faults:      cfg.Faults,
	})
	if err != nil {
		return nil, err
	}
	// A node VM that will not release is an error of the run.
	defer func() { err = errors.Join(err, cl.Close()) }()

	initVal := func(v int) float64 {
		if cfg.App == PageRank {
			return 1.0
		}
		return 0.0
	}
	e := &engine{
		cl:     cl,
		cfg:    cfg,
		g:      g,
		parts:  partitionGraph(g, cfg.Nodes, initVal),
		states: make([]*nodeState, cfg.Nodes),
		plan:   cl.CrashPlan(cfg.Supersteps),
	}
	if cfg.App == KMeans {
		// Spread the initial centroids over the embedding's range.
		e.cents = make([]float64, 2*cfg.K)
		for c := 0; c < cfg.K; c++ {
			e.cents[c] = float64(c * 7)
			e.cents[cfg.K+c] = float64(c * 11)
		}
	}
	start := time.Now()

	// Build partitions inside the VMs (before any iteration: vertex
	// objects live for the whole job).
	err = cl.ParallelEach(func(n *cluster.Node) error {
		return e.buildNodeState(n, nil)
	})
	if err != nil {
		return nil, err
	}

	// Random walk: seed walkers round-robin across vertices.
	if cfg.App == RandomWalk {
		if err := e.seedWalkers(); err != nil {
			return nil, err
		}
	}

	for step := 0; step < cfg.Supersteps; step++ {
		if err := e.runSuperstep(step); err != nil {
			return nil, err
		}
	}

	// Extract final values.
	values := make([]float64, g.NumVertices)
	err = cl.ParallelEach(func(n *cluster.Node) error {
		vals, err := e.readValues(n)
		if err != nil {
			return err
		}
		for i, id := range e.states[n.ID].part.ids {
			values[id] = vals[i]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := resultFrom(cl, start)
	res.Values = values
	if cfg.App == KMeans {
		res.Centroids = make([][2]float64, cfg.K)
		for c := range res.Centroids {
			res.Centroids[c] = [2]float64{e.cents[c], e.cents[cfg.K+c]}
		}
	}
	return res, nil
}

// tolerant reports whether the run checkpoints and recovers (any fault
// injection enabled). A fault-free run pays nothing for the machinery.
func (e *engine) tolerant() bool { return e.cl.Injector() != nil }

// seedWalkers plants cfg.Walkers walkers round-robin across vertices by
// calling GPSDriver.seedWalkers on each owning node. Seeded walkers live
// in vertex message lists — not in any frame — so a restore of the
// step-0 checkpoint (whose node states are rebuilt empty) re-runs this.
func (e *engine) seedWalkers() error {
	seedByNode := make([][]int32, e.cfg.Nodes)
	for w := 0; w < e.cfg.Walkers; w++ {
		v := int32((w * 7919) % e.g.NumVertices)
		node := int(v) % e.cfg.Nodes
		seedByNode[node] = append(seedByNode[node], e.parts[node].local[v])
	}
	return e.cl.ParallelEach(func(n *cluster.Node) error {
		if len(seedByNode[n.ID]) == 0 {
			return nil
		}
		t := n.Main
		oSeed, err := t.NewIntArr(seedByNode[n.ID])
		if err != nil {
			return err
		}
		defer t.FreeObj(oSeed)
		_, err = t.InvokeStatic("GPSDriver", "seedWalkers", vm.O(e.states[n.ID].vsObj), vm.O(oSeed))
		return err
	})
}

// retain makes c the run's one retained checkpoint, dropping the
// superseded snapshot now that its successor is durably taken. Holding
// only the newest bounds checkpoint memory at one snapshot regardless of
// superstep count.
func (e *engine) retain(c *checkpoint) {
	if old := e.ckpt; old != nil {
		reg := e.cl.Obs()
		reg.Counter(obs.CtrCheckpointsDropped).Inc()
		for id, b := range old.vals {
			reg.Emit(obs.EvCheckpoint, "drop", int64(old.step), int64(len(b)), int64(id))
		}
	}
	e.ckpt = c
}

// buildNodeState (re)builds one node's VM-side partition state. vals
// overrides the initial vertex values (checkpoint restore); nil uses the
// partition's initial values. Handles from a previous build on the same VM
// incarnation are freed first; handles into a replaced VM are simply
// forgotten with it.
func (e *engine) buildNodeState(n *cluster.Node, vals []float64) error {
	st := e.states[n.ID]
	if st == nil {
		st = &nodeState{part: e.parts[n.ID]}
		e.states[n.ID] = st
	}
	t := n.Main
	if st.built && st.vm == n.VM {
		t.FreeObj(st.vsObj)
		t.FreeObj(st.adjObj)
		t.FreeObj(st.outT)
		t.FreeObj(st.outV)
	}
	st.built = false
	st.vm = n.VM
	if e.cfg.App == KMeans {
		return e.buildPoints(n, st)
	}
	if vals == nil {
		vals = st.part.vals
	}
	oIds, err := t.NewIntArr(st.part.ids)
	if err != nil {
		return err
	}
	defer t.FreeObj(oIds)
	oVals, err := t.NewDoubleArr(vals)
	if err != nil {
		return err
	}
	defer t.FreeObj(oVals)
	oIdx, err := t.NewIntArr(st.part.adjIndex)
	if err != nil {
		return err
	}
	defer t.FreeObj(oIdx)
	st.vsObj, err = t.InvokeStaticObj("GPSDriver", "buildPartition", vm.O(oIds), vm.O(oVals), vm.O(oIdx))
	if err != nil {
		return err
	}
	st.adjObj, err = t.NewIntArr(st.part.adj)
	if err != nil {
		return err
	}
	maxOut := len(st.part.adj)
	if e.cfg.App == RandomWalk {
		maxOut = e.cfg.Walkers // every walker could land here
	}
	if maxOut == 0 {
		maxOut = 1
	}
	st.outT, err = t.NewArr("int", maxOut)
	if err != nil {
		return err
	}
	st.outV, err = t.NewArr("double", maxOut)
	if err != nil {
		return err
	}
	st.built = true
	return nil
}

// buildPoints builds a k-means node's points: each vertex embedded in 2-D
// by its degrees, offset by its hashed ID.
func (e *engine) buildPoints(n *cluster.Node, st *nodeState) error {
	t := n.Main
	xs := make([]float64, len(st.part.ids))
	ys := make([]float64, len(st.part.ids))
	for i, v := range st.part.ids {
		xs[i] = float64(e.g.OutDeg[v]) + float64(v%17)*0.1
		ys[i] = float64(e.g.InDeg[v]) + float64(v%23)*0.1
	}
	ox, err := t.NewDoubleArr(xs)
	if err != nil {
		return err
	}
	defer t.FreeObj(ox)
	oy, err := t.NewDoubleArr(ys)
	if err != nil {
		return err
	}
	defer t.FreeObj(oy)
	st.vsObj, err = t.InvokeStaticObj("GPSDriver", "buildPoints", vm.O(ox), vm.O(oy))
	if err != nil {
		return err
	}
	st.adjObj, st.outT, st.outV = vm.NilObj, vm.NilObj, vm.NilObj
	st.built = true
	return nil
}

// runSuperstep drives one superstep through its checkpoint, compute and
// the frame barrier. A fault-tolerant run checkpoints at every superstep
// boundary, so a recovery (a planned crash, or a node out of memory)
// restores this superstep's start and runs it again.
func (e *engine) runSuperstep(step int) error {
	if e.tolerant() {
		c, err := e.takeCheckpoint(step)
		if err != nil {
			return err
		}
		e.retain(c)
	}
	for replays := 0; ; replays++ {
		failed, kind, err := e.attempt(step)
		if kind == "" {
			return err
		}
		if replays == maxReplays {
			return fmt.Errorf("gps: superstep %d still failing after %d recovery attempts", step, maxReplays)
		}
		if err := e.recover(step, failed, kind); err != nil {
			return err
		}
	}
}

// attempt runs a superstep once. A failure the checkpoint recovers from
// comes back as the failed node and its kind, "crash" or "oom"; any other
// failure as err.
func (e *engine) attempt(step int) (failed int, kind string, err error) {
	// Taking the planned crash consumes it: the replay of this superstep
	// must not re-fire it.
	if node, ok := e.plan.Take(step); ok {
		// The node dies mid-superstep: it computes nothing and its
		// mailbox black-holes, while the surviving nodes finish their
		// compute and send into the void.
		e.cl.Obs().Counter(obs.CtrCrashes).Inc()
		e.cl.Net.Crash(node)
		if err := e.compute(step, node); err != nil {
			return 0, "", err
		}
		return node, "crash", nil
	}
	err = e.compute(step, -1)
	if err == nil {
		return 0, "", e.barrier()
	}
	ne := cluster.FirstNodeError(err)
	if !e.tolerant() || ne == nil || !vm.IsOOM(ne.Err) {
		return 0, "", err
	}
	e.cl.Obs().Counter(obs.CtrOOMRecoveries).Inc()
	return ne.ID, "oom", nil
}

// compute runs the superstep's compute phase on every node except skip.
func (e *engine) compute(step, skip int) error {
	return e.cl.ParallelEach(func(n *cluster.Node) error {
		if n.ID == skip {
			return nil
		}
		return e.superstep(n, step)
	})
}

// barrier ends a superstep. For PageRank and random walk every node
// gathers one frame per peer; for k-means node 0, standing in for GPS's
// master, gathers every node's partial sums and moves the centroids.
// Either way frames are taken in sender order, not arrival order — this
// is what makes a faulty run's result bit-identical to the fault-free
// one, and a k-means run's centroids the same on every run.
func (e *engine) barrier() error {
	if e.cfg.App == KMeans {
		return e.moveCentroids()
	}
	for _, n := range e.cl.Nodes {
		byFrom, err := e.cl.Net.Gather(n.ID)
		if err != nil {
			return err
		}
		st := e.states[n.ID]
		st.incoming = nil
		for _, d := range byFrom {
			if len(d) > 0 {
				st.incoming = append(st.incoming, d)
			}
		}
	}
	return nil
}

// moveCentroids is the k-means master compute: it adds the nodes' partial
// sums in sender order and moves every non-empty cluster's centroid to
// its points' mean.
func (e *engine) moveCentroids() error {
	frames, err := e.cl.Net.Gather(0)
	if err != nil {
		return err
	}
	k := e.cfg.K
	sums := make([]float64, 3*k)
	for _, f := range frames {
		for i, v := range getFloats(f) {
			sums[i] += v
		}
	}
	for c := 0; c < k; c++ {
		if cnt := sums[c*3+2]; cnt > 0 {
			e.cents[c] = sums[c*3] / cnt
			e.cents[k+c] = sums[c*3+1] / cnt
		}
	}
	return nil
}

// takeCheckpoint serializes every node's vertex state through the frame
// codec and snapshots its undelivered frames and Sys.rand cursor, and the
// k-means centroids.
func (e *engine) takeCheckpoint(step int) (*checkpoint, error) {
	ck := &checkpoint{
		step:     step,
		vals:     make([][]byte, len(e.cl.Nodes)),
		incoming: make([][][]byte, len(e.cl.Nodes)),
		rng:      make([]uint64, len(e.cl.Nodes)),
	}
	err := e.cl.ParallelEach(func(n *cluster.Node) error {
		st := e.states[n.ID]
		ck.incoming[n.ID] = append([][]byte(nil), st.incoming...)
		ck.rng[n.ID] = n.VM.RandState()
		if e.cfg.App == KMeans {
			return nil
		}
		vals, err := e.readValues(n)
		if err != nil {
			return err
		}
		buf := make([]byte, 0, len(vals)*12)
		for i, v := range vals {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(st.part.ids[i]))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		ck.vals[n.ID] = buf
		return nil
	})
	if err != nil {
		return nil, err
	}
	ck.cents = putFloats(nil, e.cents)
	reg := e.cl.Obs()
	reg.Counter(obs.CtrCheckpoints).Inc()
	reg.Counter(obs.CtrCheckpointBytes).Add(int64(len(ck.cents)))
	for id, b := range ck.vals {
		reg.Counter(obs.CtrCheckpointBytes).Add(int64(len(b)))
		reg.Emit(obs.EvCheckpoint, "save", int64(step), int64(len(b)), int64(id))
	}
	return ck, nil
}

// recover rebuilds the failed node with a fresh VM, discards the aborted
// attempt's frames, and winds every node back to this superstep's
// checkpoint so the superstep can replay.
func (e *engine) recover(step int, failed int, kind string) error {
	if err := e.cl.RestartNode(failed); err != nil {
		return err
	}
	e.cl.Obs().Emit(obs.EvRecovery, kind, int64(failed), int64(step), 0)
	// The aborted attempt's frames (sent by surviving nodes before the
	// failure surfaced) are stale: the replay will resend them.
	for id := range e.cl.Nodes {
		for {
			if _, ok := e.cl.Net.TryRecv(id); !ok {
				break
			}
		}
	}
	return e.restore(e.ckpt)
}

// restore rebuilds every node's vertex state, incoming frames, and
// Sys.rand cursor, and the k-means centroids, from the checkpoint. All
// nodes are rebuilt, not just the failed one: survivors already consumed
// their incoming frames, advanced their vertex values, and drew from
// their rng streams during the aborted attempt. Restoring the rng cursor
// is what makes a RandomWalk replay bit-identical rather than merely
// walker-conserving.
func (e *engine) restore(ckpt *checkpoint) error {
	err := e.cl.ParallelEach(func(n *cluster.Node) error {
		buf := ckpt.vals[n.ID]
		vals := make([]float64, len(buf)/12)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*12+4:]))
		}
		if err := e.buildNodeState(n, vals); err != nil {
			return err
		}
		e.states[n.ID].incoming = ckpt.incoming[n.ID]
		n.VM.SetRandState(ckpt.rng[n.ID])
		return nil
	})
	if err != nil {
		return err
	}
	e.cents = getFloats(ckpt.cents)
	reg := e.cl.Obs()
	reg.Counter(obs.CtrRestores).Inc()
	for id, b := range ckpt.vals {
		reg.Emit(obs.EvCheckpoint, "restore", int64(ckpt.step), int64(len(b)), int64(id))
	}
	// Seeded walkers live in vertex message lists, which buildNodeState
	// rebuilds empty; a restore of the step-0 checkpoint must replant them.
	if ckpt.step == 0 && e.cfg.App == RandomWalk {
		return e.seedWalkers()
	}
	return nil
}

// readValues extracts a node's current vertex values (k-means: its points'
// clusters) in partition order.
func (e *engine) readValues(n *cluster.Node) ([]float64, error) {
	st := e.states[n.ID]
	t := n.Main
	if e.cfg.App == KMeans {
		vals := make([]float64, len(st.part.ids))
		for i := range vals {
			p, err := t.ArrGetObj(st.vsObj, i)
			if err != nil {
				return nil, err
			}
			cv, err := t.GetField(p, "KPoint", "cluster")
			t.FreeObj(p)
			if err != nil {
				return nil, err
			}
			vals[i] = float64(int32(cv))
		}
		return vals, nil
	}
	out, err := t.NewArr("double", len(st.part.ids))
	if err != nil {
		return nil, err
	}
	defer t.FreeObj(out)
	if _, err := t.InvokeStatic("GPSDriver", "extractValues", vm.O(st.vsObj), vm.O(out)); err != nil {
		return nil, err
	}
	return t.ReadDoubleArr(out)
}

// superstep runs one node's compute phase and sends its frames: one per
// peer, or for k-means its partial sums to the master.
func (e *engine) superstep(n *cluster.Node, step int) error {
	stepStart := time.Now()
	st := e.states[n.ID]
	first := step == 0
	last := step == e.cfg.Supersteps-1
	t := n.Main
	t.IterationStart()
	defer t.IterationEnd()
	defer func() {
		n.VM.Obs().Emit(obs.EvIteration, "superstep", int64(step), time.Since(stepStart).Nanoseconds(), int64(n.ID))
	}()

	// Deliver incoming messages (u32 local target already translated by
	// sender? No: sender sends global IDs; translate here).
	for _, f := range st.incoming {
		cnt := len(f) / 12
		locals := make([]int32, cnt)
		vals := make([]float64, cnt)
		for i := 0; i < cnt; i++ {
			g := int32(binary.LittleEndian.Uint32(f[i*12:]))
			locals[i] = st.part.local[g]
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(f[i*12+4:]))
		}
		oL, err := t.NewIntArr(locals)
		if err != nil {
			return err
		}
		oV, err := t.NewDoubleArr(vals)
		if err != nil {
			t.FreeObj(oL)
			return err
		}
		_, err = t.InvokeStatic("GPSDriver", "deliver", vm.O(st.vsObj), vm.O(oL), vm.O(oV))
		t.FreeObj(oL)
		t.FreeObj(oV)
		if err != nil {
			return err
		}
	}

	var emitted int
	var targets []int32
	var vals []float64
	switch e.cfg.App {
	case PageRank:
		ev, err := t.InvokeStatic("GPSDriver", "prStep",
			vm.O(st.vsObj), vm.O(st.adjObj), vm.O(st.outT), vm.O(st.outV),
			vm.I(b2i(first)), vm.I(b2i(last)))
		if err != nil {
			return err
		}
		emitted = int(int32(ev))
		if emitted > 0 {
			targets, err = readIntPrefix(t, st.outT, emitted)
			if err != nil {
				return err
			}
			vals, err = readDoublePrefix(t, st.outV, emitted)
			if err != nil {
				return err
			}
		}
	case RandomWalk:
		ev, err := t.InvokeStatic("GPSDriver", "rwStep",
			vm.O(st.vsObj), vm.O(st.adjObj), vm.O(st.outT), vm.I(b2i(last)))
		if err != nil {
			return err
		}
		emitted = int(int32(ev))
		if emitted > 0 {
			var err error
			targets, err = readIntPrefix(t, st.outT, emitted)
			if err != nil {
				return err
			}
			vals = make([]float64, emitted)
			for i := range vals {
				vals[i] = 1.0
			}
		}
	case KMeans:
		sums, err := e.kmeansAssign(t, st)
		if err != nil {
			return err
		}
		e.cl.Net.Send(cluster.Frame{From: n.ID, To: 0, Tag: "sums", Data: putFloats(nil, sums)})
		return nil
	}

	// Group by destination node and send frames (the serialization
	// boundary between machines).
	frames := make([][]byte, len(e.cl.Nodes))
	for i := 0; i < emitted; i++ {
		dst := int(targets[i]) % len(e.cl.Nodes)
		var buf [12]byte
		binary.LittleEndian.PutUint32(buf[0:], uint32(targets[i]))
		binary.LittleEndian.PutUint64(buf[4:], math.Float64bits(vals[i]))
		frames[dst] = append(frames[dst], buf[:]...)
	}
	for d, f := range frames {
		e.cl.Net.Send(cluster.Frame{From: n.ID, To: d, Tag: "msgs", Data: f})
	}
	return nil
}

// kmeansAssign assigns the node's points to their nearest centroids and
// returns the node's per-cluster partial sums.
func (e *engine) kmeansAssign(t *vm.Thread, st *nodeState) ([]float64, error) {
	k := e.cfg.K
	ocx, err := t.NewDoubleArr(e.cents[:k])
	if err != nil {
		return nil, err
	}
	defer t.FreeObj(ocx)
	ocy, err := t.NewDoubleArr(e.cents[k:])
	if err != nil {
		return nil, err
	}
	defer t.FreeObj(ocy)
	osums, err := t.NewArr("double", 3*k)
	if err != nil {
		return nil, err
	}
	defer t.FreeObj(osums)
	if _, err := t.InvokeStatic("GPSDriver", "kmeansAssign",
		vm.O(st.vsObj), vm.O(ocx), vm.O(ocy), vm.O(osums)); err != nil {
		return nil, err
	}
	return t.ReadDoubleArr(osums)
}

// putFloats appends vals to buf as little-endian f64s.
func putFloats(buf []byte, vals []float64) []byte {
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// getFloats decodes what putFloats encoded.
func getFloats(b []byte) []float64 {
	vals := make([]float64, len(b)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return vals
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func readIntPrefix(t *vm.Thread, o vm.Obj, n int) ([]int32, error) {
	all, err := t.ReadIntArr(o)
	if err != nil {
		return nil, err
	}
	return all[:n], nil
}

func readDoublePrefix(t *vm.Thread, o vm.Obj, n int) ([]float64, error) {
	all, err := t.ReadDoubleArr(o)
	if err != nil {
		return nil, err
	}
	return all[:n], nil
}

func resultFrom(cl *cluster.Cluster, start time.Time) *Result {
	st := cl.Stats()
	return &Result{
		ET:         time.Since(start),
		GT:         st.GCTime,
		PM:         st.MaxTotal,
		HeapPeak:   st.MaxHeapPeak,
		NativePeak: st.MaxNative,
		MinorGCs:   st.MinorGCs,
		FullGCs:    st.FullGCs,
		Net:        cl.Net.Stats(),
		Obs:        cl.Obs().Snapshot(),
		NodeObs:    cl.ObsSnapshots(),
	}
}
