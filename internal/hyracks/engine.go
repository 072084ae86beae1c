package hyracks

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/vm"
)

// Job is a MapReduce-style Hyracks job: every node maps its local
// partition into per-reducer frames, frames are shuffled over the
// network, and every node reduces the frames addressed to it into an
// output file.
type Job interface {
	Name() string
	// Map consumes the node's partition and returns one frame per
	// reducer (len == reducers; empty frames allowed).
	Map(n *cluster.Node, part []byte, reducers int) ([][]byte, error)
	// Reduce consumes the frames shuffled to this node and returns the
	// node's output file contents.
	Reduce(n *cluster.Node, frames [][]byte) ([]byte, error)
}

// Result reports one job run (a row of Table 3 plus the memory points of
// Figure 4b/4c).
type Result struct {
	Job         string
	ET          time.Duration
	OME         bool          // ran out of memory (or, for P', exceeded the fair cap)
	OMEAt       time.Duration // when the failure surfaced
	ShuffledMB  float64
	OutputBytes int64

	// Report is what the cluster measured: the memory book (PM, the peak
	// per-node heap plus native memory, is Figure 4(b)/(c)'s bars and
	// lines), the network's traffic, the run's recovery.* counters with
	// its recovery and degraded events (a fault-free run has none), and
	// each node's snapshot, where the map/reduce phases appear as EvPhase
	// events.
	cluster.Report
}

// Hyracks recovery occasions for the crash plan: 0 = map, 1 = reduce.
// CrashPlan never picks occasion 0, so planned crashes land in the reduce
// phase — after useful work exists to lose.
const crashOccasions = 2

// RunJob executes the job over the dataset partitions on a fresh cluster
// for prog. fairCap, when > 0, fails a run whose per-node total memory
// (heap + native) exceeded it — the paper's fairness rule for P', whose
// native memory is otherwise unbounded ("an execution of P' that consumes
// more than 8GB memory is considered an out-of-memory failure").
//
// Task failures are tolerated per the degradation ladder: a task that dies
// of memory exhaustion is retried once on its own node (the failed
// attempt's iteration pages are already recycled, and the heap garbage is
// collectible), then drained to a healthy helper node, and only counts as
// an OME result when no node can run it. A planned node crash in the
// reduce phase is recovered by rebuilding the node and re-running its
// task from the engine-held shuffle frames. Map tasks send no frames until
// they succeed, so a retried task never double-delivers.
func RunJob(prog *ir.Program, job Job, parts [][]byte, ccfg cluster.Config, fairCap int64, fs *dfs.FS) (_ *Result, err error) {
	cl, err := cluster.New(prog, ccfg)
	if err != nil {
		return nil, err
	}
	// A node VM that will not release is an error of the run.
	defer func() { err = errors.Join(err, cl.Close()) }()
	res := &Result{Job: job.Name()}
	start := time.Now()
	reducers := len(cl.Nodes)
	reg := cl.Obs()

	mapTask := func(n *cluster.Node, logical int) error {
		part := []byte{}
		if logical < len(parts) {
			part = parts[logical]
		}
		phaseStart := time.Now()
		frames, err := job.Map(n, part, reducers)
		if err != nil {
			return fmt.Errorf("map: %w", err)
		}
		if len(frames) != reducers {
			return fmt.Errorf("map returned %d frames for %d reducers", len(frames), reducers)
		}
		var shuffled int64
		for r, f := range frames {
			shuffled += int64(len(f))
			// Frames carry the logical mapper's ID even when a helper node
			// runs the task, so the shuffle sees one frame per mapper.
			cl.Net.Send(cluster.Frame{From: logical, To: r, Tag: "shuffle", Data: f})
		}
		n.VM.Obs().Emit(obs.EvPhase, "map", int64(logical), time.Since(phaseStart).Nanoseconds(), shuffled)
		return nil
	}

	// Map phase: every node maps its partition. Failures are collected
	// per-node (not short-circuited) so the recovery ladder below can run.
	mapErrs := make([]error, len(cl.Nodes))
	_ = cl.ParallelEach(func(n *cluster.Node) error {
		mapErrs[n.ID] = mapTask(n, n.ID)
		return nil
	})
	for id, merr := range mapErrs {
		if merr == nil {
			continue
		}
		final, err := recoverTask(cl, "map", id, merr, mapErrs,
			func(n *cluster.Node) error { return mapTask(n, id) })
		if err != nil {
			return nil, err
		}
		if final != nil {
			return failOrErr(res, final, start, cl)
		}
	}

	// Shuffle: the engine drains every reducer's frames before the reduce
	// phase starts, filed by mapper ID. Canonical ordering makes merge
	// ties deterministic, and holding the frames engine-side means a
	// crashed reducer's task can replay without re-running its mappers.
	shuffle := make([][][]byte, reducers)
	for r := range cl.Nodes {
		if shuffle[r], err = cl.Net.Gather(r); err != nil {
			return nil, err
		}
	}

	reduceTask := func(n *cluster.Node, logical int) error {
		phaseStart := time.Now()
		out, err := job.Reduce(n, shuffle[logical])
		if err != nil {
			return fmt.Errorf("reduce: %w", err)
		}
		fs.Write(fmt.Sprintf("/out/%s/part-%d", job.Name(), logical), out)
		n.VM.Obs().Emit(obs.EvPhase, "reduce", int64(logical), time.Since(phaseStart).Nanoseconds(), int64(len(out)))
		return nil
	}

	// Planned crashes land in the reduce phase (occasion 1): the node dies
	// with its task unstarted and is rebuilt from scratch.
	crashed := make(map[int]bool)
	for _, c := range cl.CrashPlan(crashOccasions) {
		crashed[c.Node] = true
	}
	redErrs := make([]error, len(cl.Nodes))
	_ = cl.ParallelEach(func(n *cluster.Node) error {
		if crashed[n.ID] {
			return nil
		}
		redErrs[n.ID] = reduceTask(n, n.ID)
		return nil
	})
	for id := range crashed {
		reg.Counter(obs.CtrCrashes).Inc()
		cl.Net.Crash(id)
		if err := cl.RestartNode(id); err != nil {
			return nil, err
		}
		reg.Counter(obs.CtrTaskRetries).Inc()
		reg.Emit(obs.EvRecovery, "crash", int64(id), 1, 0)
		redErrs[id] = reduceTask(cl.Nodes[id], id)
	}
	for id, rerr := range redErrs {
		if rerr == nil {
			continue
		}
		final, err := recoverTask(cl, "reduce", id, rerr, redErrs,
			func(n *cluster.Node) error { return reduceTask(n, id) })
		if err != nil {
			return nil, err
		}
		if final != nil {
			return failOrErr(res, final, start, cl)
		}
	}

	res.ET = time.Since(start)
	res.Report = cl.Report()
	res.ShuffledMB = float64(res.Net.BytesSent) / (1 << 20)
	for _, p := range fs.List(fmt.Sprintf("/out/%s/", job.Name())) {
		res.OutputBytes += int64(fs.Size(p))
	}
	if fairCap > 0 && res.PM > fairCap {
		res.OME = true
		res.OMEAt = res.ET
	}
	return res, nil
}

// recoverTask runs the degradation ladder for a failed task: retry once on
// the task's own node, then drain to a healthy helper, then give up. It
// returns (finalErr, nil) when the ladder is exhausted and the failure
// should be classified (OME or real), (nil, nil) when the task eventually
// succeeded, and (nil, err) for infrastructure errors.
func recoverTask(cl *cluster.Cluster, phase string, id int, taskErr error, peerErrs []error, run func(*cluster.Node) error) (error, error) {
	if !vm.IsOOM(taskErr) {
		return taskErr, nil
	}
	reg := cl.Obs()
	reg.Counter(obs.CtrOOMRecoveries).Inc()
	// Rung 1: retry on the same node. For transformed programs the failed
	// attempt's iteration already released its pages (the forced
	// page-recycle boundary); for P the dead attempt's objects are
	// collectible garbage.
	reg.Counter(obs.CtrTaskRetries).Inc()
	reg.Emit(obs.EvRecovery, "oom", int64(id), 0, 0)
	retryErr := run(cl.Nodes[id])
	if retryErr == nil {
		return nil, nil
	}
	if !vm.IsOOM(retryErr) {
		return retryErr, nil
	}
	// Rung 2: drain the task to a healthy node (one whose own task did not
	// fail). When every node is out of memory the run is a genuine OME —
	// exactly the Table 3 data point.
	for h := range cl.Nodes {
		if h == id || (h < len(peerErrs) && peerErrs[h] != nil) {
			continue
		}
		reg.Counter(obs.CtrTasksDegraded).Inc()
		reg.Emit(obs.EvDegraded, phase, int64(id), int64(h), 0)
		helpErr := run(cl.Nodes[h])
		if helpErr == nil {
			return nil, nil
		}
		return helpErr, nil
	}
	return retryErr, nil
}

// failOrErr classifies a phase error: OutOfMemoryError becomes an OME
// result (a Table 3 data point); anything else is a real error.
func failOrErr(res *Result, err error, start time.Time, cl *cluster.Cluster) (*Result, error) {
	if vm.IsOOM(err) {
		res.OME = true
		res.OMEAt = time.Since(start)
		res.ET = res.OMEAt
		res.Report = cl.Report()
		return res, nil
	}
	return nil, err
}
