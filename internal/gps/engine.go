package gps

import (
	"encoding/binary"
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
	// superstep boundaries so crashed or OOM-killed nodes can be
	// rebuilt and the computation replayed from the last checkpoint.
	Faults *faults.Config

	// CheckpointInterval checkpoints every k superstep boundaries
	// (default 1: every boundary). Larger k trades checkpoint cost for a
	// longer replay: a failure rewinds to the last checkpointed step and
	// re-runs everything after it. Only the newest checkpoint is
	// retained; the superseded one is dropped as soon as its successor
	// is durably taken.
	CheckpointInterval int

	// RecvTimeout bounds the superstep barrier's wait for peer frames
	// (cluster.DefaultRecvTimeout when zero).
	RecvTimeout time.Duration
}

// Recovery counts the fault-tolerance work a run performed.
type Recovery struct {
	Checkpoints        int64 // superstep checkpoints taken
	CheckpointBytes    int64 // codec-encoded checkpoint payload, summed
	CheckpointsDropped int64 // superseded checkpoints released
	Restores           int64 // checkpoint restores (one per recovery)
	NodeRestarts       int64 // node VMs rebuilt from scratch
	Crashes            int64 // planned whole-node crashes survived
	OOMRecoveries      int64 // out-of-memory failures recovered

	// RetainedCheckpointsHW is the largest number of checkpoints held at
	// once. The engine keeps only the newest, so it never exceeds 1 —
	// the retention bug this field guards against was holding one full
	// snapshot per superstep for the whole run.
	RetainedCheckpointsHW int64
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

	// Recovery and Net report the run's fault-tolerance activity; both
	// are zero for a fault-free run.
	Recovery Recovery
	Net      cluster.NetStats

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
	vsObj    vm.Obj // GPSVertex[] (or KPoint[])
	adjObj   vm.Obj
	outT     vm.Obj // reusable out-target buffer
	outV     vm.Obj // reusable out-value buffer
	incoming [][]byte
}

// msg frame format: n × (u32 globalTarget, f64 value). Checkpoints reuse
// the exact same codec: a node's vertex state serializes to n × (u32
// globalID, f64 value).

// checkpoint is the superstep-boundary recovery state: every node's
// codec-encoded vertex values, the frames it was about to consume, and
// its VM rng cursor (the Sys.rand stream RandomWalk draws from — without
// it a replay would re-roll different walks and recovery would only be
// walker-conserving, not bit-identical). Restoring it and re-running the
// supersteps since replays the computation exactly.
type checkpoint struct {
	step     int
	vals     [][]byte   // per node: n × (u32 id, f64 value)
	incoming [][][]byte // per node: the superstep's undelivered frames
	rng      []uint64   // per node: Sys.rand cursor (vm rng state)
}

// maxReplays bounds recovery attempts for a single superstep, so a fault
// storm degenerates into an error instead of an infinite replay loop.
const maxReplays = 4

// engine carries one PR/RW run's cluster-side state.
type engine struct {
	cl       *cluster.Cluster
	cfg      Config
	parts    []*partition
	states   []*nodeState
	vertices int // graph vertex count (walker seeding)
	plan     faults.Plan
	ckpt     *checkpoint
	replays  map[int]int // recovery attempts per failing superstep
	rec      Recovery
}

// Run executes the job and returns metrics plus final values (vertex
// values for PR/RW, assignments for k-means).
func Run(prog *ir.Program, g *datagen.Graph, cfg Config) (*Result, error) {
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
	if cfg.CheckpointInterval <= 0 {
		cfg.CheckpointInterval = 1
	}
	cl, err := cluster.New(prog, cluster.Config{
		NumNodes:    cfg.Nodes,
		HeapPerNode: cfg.HeapPerNode,
		RandSeed:    cfg.Seed,
		Faults:      cfg.Faults,
		RecvTimeout: cfg.RecvTimeout,
	})
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	if cfg.App == KMeans {
		return runKMeans(cl, g, cfg)
	}

	initVal := func(v int) float64 {
		if cfg.App == PageRank {
			return 1.0
		}
		return 0.0
	}
	e := &engine{
		cl:       cl,
		cfg:      cfg,
		parts:    partitionGraph(g, cfg.Nodes, initVal),
		states:   make([]*nodeState, cfg.Nodes),
		vertices: g.NumVertices,
		plan:     cl.CrashPlan(cfg.Supersteps),
		replays:  make(map[int]int),
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

	for step := 0; step < cfg.Supersteps; {
		next, err := e.runSuperstep(step)
		if err != nil {
			return nil, err
		}
		step = next
	}

	// Extract final values.
	values := make([]float64, g.NumVertices)
	err = cl.ParallelEach(func(n *cluster.Node) error {
		st := e.states[n.ID]
		vals, err := readValues(n, st)
		if err != nil {
			return err
		}
		for i, id := range st.part.ids {
			values[id] = vals[i]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := resultFrom(cl, start)
	res.Values = values
	res.Recovery = e.rec
	return res, nil
}

// tolerant reports whether the run checkpoints and recovers (any fault
// injection enabled). A fault-free run pays nothing for the machinery.
func (e *engine) tolerant() bool { return e.cl.Injector() != nil }

// seedWalkers plants cfg.Walkers walkers round-robin across vertices by
// calling GPSDriver.seedWalkers on each owning node. Seeded walkers live
// in vertex message lists — not in any frame — so a rewind to the
// step-0 checkpoint (whose node states are rebuilt empty) re-runs this.
func (e *engine) seedWalkers() error {
	seedByNode := make([][]int32, e.cfg.Nodes)
	for w := 0; w < e.cfg.Walkers; w++ {
		v := int32((w * 7919) % e.vertices)
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
		e.rec.CheckpointsDropped++
		for _, n := range e.cl.Nodes {
			reg := n.VM.Obs()
			reg.Counter(obs.CtrCheckpointsDropped).Inc()
			reg.Emit(obs.EvCheckpoint, "drop", int64(old.step), int64(len(old.vals[n.ID])), int64(n.ID))
		}
	}
	e.ckpt = c
	if e.rec.RetainedCheckpointsHW < 1 {
		e.rec.RetainedCheckpointsHW = 1
	}
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

// runSuperstep drives one superstep through checkpointing, compute,
// recovery (if a crash was planned or a node OOMed), and the frame
// barrier. It returns the next superstep to run: step+1 on success, or
// the last checkpointed step after a recovery — with CheckpointInterval
// > 1 that rewinds several supersteps, which replay deterministically.
func (e *engine) runSuperstep(step int) (int, error) {
	if e.tolerant() && step%e.cfg.CheckpointInterval == 0 && (e.ckpt == nil || e.ckpt.step != step) {
		c, err := e.takeCheckpoint(step)
		if err != nil {
			return 0, err
		}
		e.retain(c)
	}
	// Taking the planned crash consumes it: a replay of this superstep
	// after a multi-step rewind must not re-fire it.
	if node, ok := e.plan.Take(step); ok {
		// The node dies mid-superstep: it computes nothing and its
		// mailbox black-holes, while the surviving nodes finish their
		// compute and send into the void.
		e.rec.Crashes++
		e.cl.Net.Crash(node)
		if err := e.compute(step, node); err != nil {
			return 0, err
		}
		return e.recoverAndRewind(step, node, "crash")
	}
	err := e.compute(step, -1)
	if err == nil {
		if err := e.barrier(); err != nil {
			return 0, err
		}
		return step + 1, nil
	}
	ne := cluster.FirstNodeError(err)
	if e.ckpt == nil || ne == nil || !vm.IsOOM(ne.Err) {
		return 0, err
	}
	e.rec.OOMRecoveries++
	return e.recoverAndRewind(step, ne.ID, "oom")
}

// recoverAndRewind recovers from the retained checkpoint and returns the
// superstep to resume from (the checkpointed one), bounding how often a
// single superstep may fail before the run gives up.
func (e *engine) recoverAndRewind(step, failed int, kind string) (int, error) {
	e.replays[step]++
	if e.replays[step] > maxReplays {
		return 0, fmt.Errorf("gps: superstep %d still failing after %d recovery attempts", step, maxReplays)
	}
	if e.ckpt == nil {
		return 0, fmt.Errorf("gps: superstep %d failed (%s, node %d) with no checkpoint to rewind to", step, kind, failed)
	}
	if err := e.recover(step, e.ckpt, failed, kind); err != nil {
		return 0, err
	}
	return e.ckpt.step, nil
}

// compute runs the superstep's compute phase on every node except skip.
func (e *engine) compute(step, skip int) error {
	first := step == 0
	last := step == e.cfg.Supersteps-1
	return e.cl.ParallelEach(func(n *cluster.Node) error {
		if n.ID == skip {
			return nil
		}
		return superstep(e.cl, n, e.states[n.ID], e.cfg, step, first, last)
	})
}

// barrier collects one frame per peer for every node. Frames are filed by
// sender ID, so the next superstep delivers them in a canonical order no
// matter how injected delays and reorders shuffled their arrival — this is
// what makes a faulty run's result bit-identical to the fault-free one.
func (e *engine) barrier() error {
	for _, n := range e.cl.Nodes {
		byFrom := make([][]byte, len(e.cl.Nodes))
		for i := 0; i < len(e.cl.Nodes); i++ {
			f, err := e.cl.Net.Recv(n.ID)
			if err != nil {
				return err
			}
			byFrom[f.From] = f.Data
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

// takeCheckpoint serializes every node's vertex state through the frame
// codec and snapshots its undelivered frames and Sys.rand cursor.
func (e *engine) takeCheckpoint(step int) (*checkpoint, error) {
	ck := &checkpoint{
		step:     step,
		vals:     make([][]byte, len(e.cl.Nodes)),
		incoming: make([][][]byte, len(e.cl.Nodes)),
		rng:      make([]uint64, len(e.cl.Nodes)),
	}
	err := e.cl.ParallelEach(func(n *cluster.Node) error {
		st := e.states[n.ID]
		vals, err := readValues(n, st)
		if err != nil {
			return err
		}
		buf := make([]byte, 0, len(vals)*12)
		for i, v := range vals {
			var b [12]byte
			binary.LittleEndian.PutUint32(b[0:], uint32(st.part.ids[i]))
			binary.LittleEndian.PutUint64(b[4:], math.Float64bits(v))
			buf = append(buf, b[:]...)
		}
		ck.vals[n.ID] = buf
		ck.incoming[n.ID] = append([][]byte(nil), st.incoming...)
		ck.rng[n.ID] = n.VM.RandState()
		reg := n.VM.Obs()
		reg.Counter(obs.CtrCheckpoints).Inc()
		reg.Counter(obs.CtrCheckpointBytes).Add(int64(len(buf)))
		reg.Emit(obs.EvCheckpoint, "save", int64(step), int64(len(buf)), int64(n.ID))
		return nil
	})
	if err != nil {
		return nil, err
	}
	e.rec.Checkpoints++
	for _, b := range ck.vals {
		e.rec.CheckpointBytes += int64(len(b))
	}
	return ck, nil
}

// recover rebuilds the failed node with a fresh VM, discards the aborted
// attempt's frames, and winds every node back to the checkpoint so the
// superstep can replay.
func (e *engine) recover(step int, ckpt *checkpoint, failed int, kind string) error {
	if err := e.cl.RestartNode(failed); err != nil {
		return err
	}
	e.rec.NodeRestarts++
	e.rec.Restores++
	reg := e.cl.Nodes[failed].VM.Obs()
	reg.Counter(obs.CtrNodeRestarts).Inc()
	reg.Emit(obs.EvRecovery, kind, int64(failed), int64(step), 0)
	// The aborted attempt's frames (sent by surviving nodes before the
	// failure surfaced) are stale: the replay will resend them.
	for id := range e.cl.Nodes {
		for {
			if _, ok := e.cl.Net.TryRecv(id); !ok {
				break
			}
		}
	}
	return e.restore(ckpt)
}

// restore rebuilds every node's vertex state, incoming frames, and
// Sys.rand cursor from the checkpoint. All nodes are rebuilt, not just
// the failed one: survivors already consumed their incoming frames,
// advanced their vertex values, and drew from their rng streams during
// the aborted attempt. Restoring the rng cursor is what makes a
// RandomWalk replay bit-identical rather than merely walker-conserving.
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
		reg := n.VM.Obs()
		reg.Counter(obs.CtrRestores).Inc()
		reg.Emit(obs.EvCheckpoint, "restore", int64(ckpt.step), int64(len(buf)), int64(n.ID))
		return nil
	})
	if err != nil {
		return err
	}
	// Seeded walkers live in vertex message lists, which buildNodeState
	// rebuilds empty; a rewind to the pre-step-0 state must replant them.
	if ckpt.step == 0 && e.cfg.App == RandomWalk {
		return e.seedWalkers()
	}
	return nil
}

// readValues extracts a node's current vertex values in partition order.
func readValues(n *cluster.Node, st *nodeState) ([]float64, error) {
	t := n.Main
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

// superstep runs one node's compute phase and sends one frame per peer.
func superstep(cl *cluster.Cluster, n *cluster.Node, st *nodeState, cfg Config, step int, first, last bool) error {
	stepStart := time.Now()
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
	switch cfg.App {
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
	}

	// Group by destination node and send frames (the serialization
	// boundary between machines).
	frames := make([][]byte, len(cl.Nodes))
	for i := 0; i < emitted; i++ {
		dst := int(targets[i]) % len(cl.Nodes)
		var buf [12]byte
		binary.LittleEndian.PutUint32(buf[0:], uint32(targets[i]))
		binary.LittleEndian.PutUint64(buf[4:], math.Float64bits(vals[i]))
		frames[dst] = append(frames[dst], buf[:]...)
	}
	for d, f := range frames {
		cl.Net.Send(cluster.Frame{From: n.ID, To: d, Tag: "msgs", Data: f})
	}
	return nil
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
		NodeObs:    cl.ObsSnapshots(),
	}
}

// ---------------------------------------------------------------------------
// k-means: points are graph vertices embedded deterministically in 2-D;
// centroids are broadcast by the master each superstep and partial sums
// reduced from the nodes (the Pregel "master.compute" aggregation).

func runKMeans(cl *cluster.Cluster, g *datagen.Graph, cfg Config) (*Result, error) {
	nodes := len(cl.Nodes)
	xs := make([][]float64, nodes)
	ys := make([][]float64, nodes)
	owner := make([]int, g.NumVertices)
	localIdx := make([]int, g.NumVertices)
	for v := 0; v < g.NumVertices; v++ {
		n := v % nodes
		owner[v] = n
		localIdx[v] = len(xs[n])
		// Deterministic embedding: degree vs hashed position.
		xs[n] = append(xs[n], float64(g.OutDeg[v])+float64(v%17)*0.1)
		ys[n] = append(ys[n], float64(g.InDeg[v])+float64(v%23)*0.1)
	}
	ptObjs := make([]vm.Obj, nodes)
	start := time.Now()
	err := cl.ParallelEach(func(n *cluster.Node) error {
		t := n.Main
		ox, err := t.NewDoubleArr(xs[n.ID])
		if err != nil {
			return err
		}
		defer t.FreeObj(ox)
		oy, err := t.NewDoubleArr(ys[n.ID])
		if err != nil {
			return err
		}
		defer t.FreeObj(oy)
		ptObjs[n.ID], err = t.InvokeStaticObj("GPSDriver", "buildPoints", vm.O(ox), vm.O(oy))
		return err
	})
	if err != nil {
		return nil, err
	}

	k := cfg.K
	cx := make([]float64, k)
	cy := make([]float64, k)
	for c := 0; c < k; c++ {
		// Spread initial centroids over the embedding range.
		cx[c] = float64(c * 7)
		cy[c] = float64(c * 11)
	}
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	for step := 0; step < cfg.Supersteps; step++ {
		step := step
		sums := make([]float64, 3*k)
		err := cl.ParallelEach(func(n *cluster.Node) error {
			stepStart := time.Now()
			t := n.Main
			t.IterationStart()
			defer t.IterationEnd()
			defer func() {
				n.VM.Obs().Emit(obs.EvIteration, "superstep", int64(step), time.Since(stepStart).Nanoseconds(), int64(n.ID))
			}()
			ocx, err := t.NewDoubleArr(cx)
			if err != nil {
				return err
			}
			defer t.FreeObj(ocx)
			ocy, err := t.NewDoubleArr(cy)
			if err != nil {
				return err
			}
			defer t.FreeObj(ocy)
			osums, err := t.NewArr("double", 3*k)
			if err != nil {
				return err
			}
			defer t.FreeObj(osums)
			if _, err := t.InvokeStatic("GPSDriver", "kmeansAssign",
				vm.O(ptObjs[n.ID]), vm.O(ocx), vm.O(ocy), vm.O(osums)); err != nil {
				return err
			}
			part, err := t.ReadDoubleArr(osums)
			if err != nil {
				return err
			}
			<-mu
			for i := range sums {
				sums[i] += part[i]
			}
			mu <- struct{}{}
			return nil
		})
		if err != nil {
			return nil, err
		}
		for c := 0; c < k; c++ {
			if cnt := sums[c*3+2]; cnt > 0 {
				cx[c] = sums[c*3] / cnt
				cy[c] = sums[c*3+1] / cnt
			}
		}
	}
	// Extract assignments: vertex v lives at node v%nodes, local v/nodes.
	values := make([]float64, g.NumVertices)
	err = cl.ParallelEach(func(n *cluster.Node) error {
		t := n.Main
		cnt := len(xs[n.ID])
		for i := 0; i < cnt; i++ {
			p, err := t.ArrGetObj(ptObjs[n.ID], i)
			if err != nil {
				return err
			}
			cv, err := t.GetField(p, "KPoint", "cluster")
			t.FreeObj(p)
			if err != nil {
				return err
			}
			values[i*nodes+n.ID] = float64(int32(cv))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := resultFrom(cl, start)
	res.Values = values
	cents := make([][2]float64, k)
	for c := 0; c < k; c++ {
		cents[c] = [2]float64{cx[c], cy[c]}
	}
	res.Centroids = cents
	return res, nil
}
