// Package cluster simulates the shared-nothing cluster the paper's Hyracks
// and GPS experiments run on: each node owns a private VM instance (its
// own managed heap, collector, and — for transformed programs — its own
// off-heap page store), and nodes exchange serialized byte frames through
// an in-process network. Per-node heap budgets, per-node collections, and
// the serialization boundary between nodes are therefore faithful; only
// the wire is simulated.
//
// The wire is an unreliable one when fault injection is configured
// (internal/faults): frames can be dropped, duplicated, delayed, or
// reordered, and whole nodes can crash. The network compensates the way a
// real transport would — dropped delivery attempts are retried with capped
// exponential backoff (at-least-once), and every frame carries a per-link
// sequence number the receiver dedups on (exactly-once at the mailbox).
// Mailboxes are unbounded, so a slow consumer can never deadlock a sender;
// a genuinely stalled consumer is surfaced by a Recv timeout that names
// the silent link instead of hanging the whole run.
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/vm"
)

// Node is one cluster machine: a VM plus its main worker thread.
type Node struct {
	ID   int
	VM   *vm.VM
	Main *vm.Thread
}

// Frame is one network message.
type Frame struct {
	From, To int
	Tag      string
	Data     []byte

	// seq is the per-(From,To)-link sequence number stamped by Send; the
	// receiving mailbox dedups on (From, seq) so injected duplicates and
	// retry races collapse to exactly-once delivery.
	seq uint64
}

// Send retry policy for injected drops: capped exponential backoff, bounded
// attempts (the simulated link eventually succeeds even at drop=1 so tests
// cannot livelock).
const (
	maxSendAttempts = 64
	backoffBase     = 50 * time.Microsecond
	backoffCap      = 1 * time.Millisecond
)

// recvTimeout bounds how long Recv waits before declaring the link
// stalled.
const recvTimeout = 10 * time.Second

// mailbox is one node's unbounded receive queue. A single goroutine
// consumes each mailbox (the node's main loop); any goroutine may send.
type mailbox struct {
	mu      sync.Mutex
	queue   []Frame
	crashed bool
	seen    map[uint64]struct{} // (from, seq) keys already delivered
	fromCnt []int64             // frames delivered so far, per sender

	sig chan struct{} // capacity 1: "queue may be non-empty"
}

func (b *mailbox) dedupKey(f Frame) uint64 {
	return uint64(f.From+1)<<48 ^ f.seq
}

// NetStats counts the network's traffic and its injected misbehavior.
type NetStats struct {
	FramesSent      int64
	FramesDelivered int64
	BytesSent       int64
	Drops           int64 // delivery attempts lost to injection
	Retries         int64 // re-sends after a dropped attempt
	Dups            int64 // frames enqueued twice by injection
	Deduped         int64 // duplicate deliveries suppressed at the mailbox
	Reorders        int64 // frames delivered ahead of the queue
	Delays          int64 // frames held back by injected latency
	BlackHoled      int64 // frames sent to a crashed node
}

// Network provides per-node mailboxes with at-least-once delivery and
// receiver-side dedup.
type Network struct {
	boxes       []*mailbox
	inj         *faults.Injector // keyed points only; nil when disabled
	recvTimeout time.Duration    // the constant recvTimeout; a stall test shortens it

	seqMu sync.Mutex
	seqs  map[uint64]uint64 // (from,to) link -> last sequence number

	framesSent      atomic.Int64
	framesDelivered atomic.Int64
	bytesSent       atomic.Int64
	drops           atomic.Int64
	retries         atomic.Int64
	dups            atomic.Int64
	deduped         atomic.Int64
	reorders        atomic.Int64
	delays          atomic.Int64
	blackHoled      atomic.Int64
}

func newNetwork(nodes int, inj *faults.Injector) *Network {
	n := &Network{inj: inj, recvTimeout: recvTimeout, seqs: make(map[uint64]uint64)}
	for i := 0; i < nodes; i++ {
		n.boxes = append(n.boxes, &mailbox{
			seen:    make(map[uint64]struct{}),
			fromCnt: make([]int64, nodes),
			sig:     make(chan struct{}, 1),
		})
	}
	return n
}

func (n *Network) nextSeq(from, to int) uint64 {
	link := uint64(from)<<32 | uint64(uint32(to))
	n.seqMu.Lock()
	defer n.seqMu.Unlock()
	n.seqs[link]++
	return n.seqs[link]
}

func frameKey(from, to int, seq uint64) uint64 {
	return faults.Mix64(uint64(from+1)<<40 ^ uint64(to+1)<<20 ^ seq)
}

// Send delivers a frame to its destination mailbox, surviving injected
// drops by retrying with capped exponential backoff. Sends to a crashed
// node are black-holed, as on a real network; the crash is surfaced to the
// application by the engine's recovery protocol, not by the transport.
func (n *Network) Send(f Frame) {
	f.seq = n.nextSeq(f.From, f.To)
	n.framesSent.Add(1)
	n.bytesSent.Add(int64(len(f.Data)))
	key := frameKey(f.From, f.To, f.seq)
	inj := n.inj
	if inj.FireKeyed(faults.NetDelay, key) {
		n.delays.Add(1)
		time.Sleep(inj.DelayKeyed(key))
	}
	// Each delivery attempt has its own fault key: a dropped attempt is
	// retried until one gets through (the ack/timeout/retry loop of a real
	// transport, collapsed into the sender).
	for attempt := 1; attempt < maxSendAttempts; attempt++ {
		if !inj.FireKeyed(faults.NetDrop, faults.Mix64(key^uint64(attempt))) {
			break
		}
		n.drops.Add(1)
		n.retries.Add(1)
		d := backoffBase << (attempt - 1)
		if d > backoffCap {
			d = backoffCap
		}
		time.Sleep(d)
	}
	copies := 1
	if inj.FireKeyed(faults.NetDup, key) {
		copies = 2
		n.dups.Add(1)
	}
	front := inj.FireKeyed(faults.NetReorder, key)
	bx := n.boxes[f.To]
	bx.mu.Lock()
	if bx.crashed {
		bx.mu.Unlock()
		n.blackHoled.Add(1)
		return
	}
	for c := 0; c < copies; c++ {
		if front && len(bx.queue) > 0 {
			n.reorders.Add(1)
			bx.queue = append([]Frame{f}, bx.queue...)
		} else {
			bx.queue = append(bx.queue, f)
		}
	}
	bx.mu.Unlock()
	select {
	case bx.sig <- struct{}{}:
	default:
	}
}

// Recv receives one frame addressed to node id, suppressing duplicate
// deliveries. It fails with a stall error — naming the receiver and the
// quietest sender link — if no frame arrives within the network's receive
// timeout, so a lost peer shows up as a diagnosable error instead of a
// deadlock.
func (n *Network) Recv(id int) (Frame, error) {
	bx := n.boxes[id]
	timer := time.NewTimer(n.recvTimeout)
	defer timer.Stop()
	for {
		bx.mu.Lock()
		for len(bx.queue) > 0 {
			f := bx.queue[0]
			bx.queue = bx.queue[1:]
			if _, dup := bx.seen[bx.dedupKey(f)]; dup {
				n.deduped.Add(1)
				continue
			}
			bx.seen[bx.dedupKey(f)] = struct{}{}
			bx.fromCnt[f.From]++
			bx.mu.Unlock()
			n.framesDelivered.Add(1)
			return f, nil
		}
		bx.mu.Unlock()
		select {
		case <-bx.sig:
		case <-timer.C:
			return Frame{}, n.stallError(id)
		}
	}
}

// stallError names the stalled receiver and the sender that has delivered
// the fewest frames to it — in a barrier protocol that is the missing peer.
func (n *Network) stallError(id int) error {
	bx := n.boxes[id]
	bx.mu.Lock()
	counts := append([]int64(nil), bx.fromCnt...)
	bx.mu.Unlock()
	quiet, min := -1, int64(1<<62)
	for from, c := range counts {
		if from != id && c < min {
			quiet, min = from, c
		}
	}
	return fmt.Errorf("cluster: node %d received no frame within %v (quietest link: node %d, %d frames delivered; per-sender counts %v)",
		id, n.recvTimeout, quiet, min, counts)
}

// Gather receives one frame from every node for node to and returns the
// payloads indexed by sender. Walking them in index order visits the
// senders in ID order, however injected delays and reorders shuffled
// their arrival, so whatever the caller folds them into comes out the
// same on every run.
func (n *Network) Gather(to int) ([][]byte, error) {
	byFrom := make([][]byte, len(n.boxes))
	for range n.boxes {
		f, err := n.Recv(to)
		if err != nil {
			return nil, err
		}
		byFrom[f.From] = f.Data
	}
	return byFrom, nil
}

// TryRecv returns a pending frame without blocking; ok is false when the
// mailbox is empty. Used by recovery code to drain delivered-but-unconsumed
// frames into a checkpoint.
func (n *Network) TryRecv(id int) (Frame, bool) {
	bx := n.boxes[id]
	bx.mu.Lock()
	defer bx.mu.Unlock()
	for len(bx.queue) > 0 {
		f := bx.queue[0]
		bx.queue = bx.queue[1:]
		if _, dup := bx.seen[bx.dedupKey(f)]; dup {
			n.deduped.Add(1)
			continue
		}
		bx.seen[bx.dedupKey(f)] = struct{}{}
		bx.fromCnt[f.From]++
		n.framesDelivered.Add(1)
		return f, true
	}
	return Frame{}, false
}

// Crash marks a node dead: its pending frames are lost and subsequent
// sends to it are black-holed.
func (n *Network) Crash(id int) {
	bx := n.boxes[id]
	bx.mu.Lock()
	bx.crashed = true
	bx.queue = nil
	bx.mu.Unlock()
}

// Revive accepts deliveries for a restarted node again. The dedup history
// survives the crash (sequence numbers only ever grow, so stale retries
// from before the crash are still suppressed).
func (n *Network) Revive(id int) {
	bx := n.boxes[id]
	bx.mu.Lock()
	bx.crashed = false
	bx.mu.Unlock()
}

// Crashed reports whether the node's mailbox is marked dead.
func (n *Network) Crashed(id int) bool {
	bx := n.boxes[id]
	bx.mu.Lock()
	defer bx.mu.Unlock()
	return bx.crashed
}

// Stats returns a snapshot of the network counters.
func (n *Network) Stats() NetStats {
	return NetStats{
		FramesSent:      n.framesSent.Load(),
		FramesDelivered: n.framesDelivered.Load(),
		BytesSent:       n.bytesSent.Load(),
		Drops:           n.drops.Load(),
		Retries:         n.retries.Load(),
		Dups:            n.dups.Load(),
		Deduped:         n.deduped.Load(),
		Reorders:        n.reorders.Load(),
		Delays:          n.delays.Load(),
		BlackHoled:      n.blackHoled.Load(),
	}
}

// BytesSent returns total bytes shuffled.
func (n *Network) BytesSent() int64 { return n.bytesSent.Load() }

// NodeError tags an error with the cluster node it occurred on.
type NodeError struct {
	ID  int
	Err error
}

func (e *NodeError) Error() string { return fmt.Sprintf("node %d: %v", e.ID, e.Err) }

// Unwrap exposes the underlying error so errors.Is/As see through the tag
// (heap.ErrOutOfMemory classification in the engines depends on this).
func (e *NodeError) Unwrap() error { return e.Err }

// Cluster is a set of nodes running the same program.
type Cluster struct {
	Nodes []*Node
	Net   *Network

	prog    *ir.Program
	cfg     Config
	nodeInj []*faults.Injector // per-node counter-based injectors
	inj     *faults.Injector   // shared keyed injector (network, crash plan)

	// retired accumulates the stats of VMs replaced by RestartNode so a
	// crash does not erase the dead node's GC history or peaks from the
	// books.
	retiredMu sync.Mutex
	retired   Stats

	// obs is the run's cluster-level registry: the engines' recovery
	// counters and events, which must outlive the node VMs a restart
	// replaces.
	obs *obs.Registry
}

// Config sizes the cluster.
type Config struct {
	NumNodes    int
	HeapPerNode int // per-node managed heap budget (-Xmx)
	RandSeed    int64

	// Faults configures deterministic fault injection; nil or a disabled
	// config runs a perfectly reliable cluster. Each node's VM gets a
	// private injector derived with ForNode; the network shares one keyed
	// injector.
	Faults *faults.Config
}

// New builds a cluster of NumNodes nodes, each with a private VM for prog.
func New(prog *ir.Program, cfg Config) (*Cluster, error) {
	if cfg.NumNodes <= 0 {
		cfg.NumNodes = 1
	}
	c := &Cluster{prog: prog, cfg: cfg, obs: obs.NewRegistry()}
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		c.inj = faults.New(cfg.Faults)
		for i := 0; i < cfg.NumNodes; i++ {
			nc := cfg.Faults.ForNode(i)
			c.nodeInj = append(c.nodeInj, faults.New(&nc))
		}
	} else {
		c.nodeInj = make([]*faults.Injector, cfg.NumNodes)
	}
	c.Net = newNetwork(cfg.NumNodes, c.inj)
	for i := 0; i < cfg.NumNodes; i++ {
		n, err := c.newNode(i)
		if err != nil {
			return nil, err
		}
		c.Nodes = append(c.Nodes, n)
	}
	return c, nil
}

func (c *Cluster) newNode(id int) (*Node, error) {
	m, err := vm.New(c.prog, vm.Config{
		HeapSize: c.cfg.HeapPerNode,
		RandSeed: c.cfg.RandSeed + int64(id),
		Faults:   c.nodeInj[id],
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: node %d: %w", id, err)
	}
	t, err := m.NewThread(nil)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %d thread: %w", id, err)
	}
	return &Node{ID: id, VM: m, Main: t}, nil
}

// Injector returns the cluster's shared fault injector (nil when fault
// injection is disabled).
func (c *Cluster) Injector() *faults.Injector { return c.inj }

// CrashPlan returns the planned node crashes for an engine with the given
// number of recovery occasions (GPS supersteps, Hyracks phases).
func (c *Cluster) CrashPlan(occasions int) faults.Plan {
	return c.inj.CrashPlan(occasions, len(c.Nodes))
}

// Obs returns the cluster's registry. Recovery is counted here, once per
// run, and not in the node VMs' registries, which a restart replaces.
func (c *Cluster) Obs() *obs.Registry { return c.obs }

// RestartNode replaces a crashed node with a fresh VM (empty heap, empty
// page store) and re-opens its mailbox, counting recovery.node_restarts.
// The dead VM's GC statistics and memory peaks are folded into the
// cluster's retired books first, so aggregate stats span the whole run,
// not just the surviving incarnations; then the dead VM is released. A
// release that fails is the restart's error, with the new node in place.
func (c *Cluster) RestartNode(id int) error {
	old := c.Nodes[id]
	c.retiredMu.Lock()
	c.retired.add(old)
	c.retiredMu.Unlock()
	relErr := old.close()
	n, err := c.newNode(id)
	if err != nil {
		return errors.Join(relErr, err)
	}
	c.Nodes[id] = n
	c.Net.Revive(id)
	c.obs.Counter(obs.CtrNodeRestarts).Inc()
	return relErr
}

// Close closes every node's thread and releases its VM: the root scope's
// records and any spill file go now, not when Go's collector finds the VM.
// It returns every node's release error. Read Stats and the node
// registries first.
func (c *Cluster) Close() error {
	var errs []error
	for _, n := range c.Nodes {
		errs = append(errs, n.close())
	}
	return errors.Join(errs...)
}

// close ends a node: its main thread, then its VM. Release fails while
// another of the node's threads is open or when the spill file will not
// close.
func (n *Node) close() error {
	n.Main.Close()
	if err := n.VM.Release(); err != nil {
		return &NodeError{ID: n.ID, Err: err}
	}
	return nil
}

// Stats aggregates per-node memory/GC statistics.
type Stats struct {
	GCTime      time.Duration // summed across nodes (including retired VMs)
	MaxHeapPeak int64         // worst node heap peak
	MaxNative   int64         // worst node native peak
	MaxTotal    int64         // worst node heap+native peak
	MinorGCs    int64
	FullGCs     int64
}

// Stats collects current counters from every node.
func (c *Cluster) Stats() Stats {
	c.retiredMu.Lock()
	s := c.retired
	c.retiredMu.Unlock()
	for _, n := range c.Nodes {
		s.add(n)
	}
	return s
}

// add folds one node's VM into s: GC time and counts sum, peaks take the
// max, so a retired VM's peak still bounds the run's worst node.
func (s *Stats) add(n *Node) {
	hs := n.VM.Heap.Stats()
	s.GCTime += hs.GCTime
	s.MinorGCs += hs.MinorGCs
	s.FullGCs += hs.FullGCs
	s.MaxHeapPeak = max(s.MaxHeapPeak, hs.PeakUsed)
	total := hs.PeakUsed
	if n.VM.RT != nil {
		ns := n.VM.RT.Stats()
		total += ns.PeakBytes
		s.MaxNative = max(s.MaxNative, ns.PeakBytes)
	}
	s.MaxTotal = max(s.MaxTotal, total)
}

// ObsSnapshots returns every node's observability snapshot, indexed by
// node ID (each node's VM has a private registry; a restarted node reports
// its current incarnation).
func (c *Cluster) ObsSnapshots() []obs.Snapshot {
	out := make([]obs.Snapshot, len(c.Nodes))
	for i, n := range c.Nodes {
		out[i] = n.VM.Obs().Snapshot()
	}
	return out
}

// ParallelEach runs fn on every node concurrently. Every failing node
// contributes to the returned error (errors.Join), each tagged with its
// node ID, so a multi-node failure is not reported as a single arbitrary
// winner.
func (c *Cluster) ParallelEach(fn func(*Node) error) error {
	errs := make([]error, len(c.Nodes))
	var wg sync.WaitGroup
	for _, n := range c.Nodes {
		wg.Add(1)
		go func(n *Node) {
			defer wg.Done()
			if err := fn(n); err != nil {
				errs[n.ID] = &NodeError{ID: n.ID, Err: err}
			}
		}(n)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// FirstNodeError extracts the lowest-ID NodeError from an error tree
// produced by ParallelEach (nil when err carries none).
func FirstNodeError(err error) *NodeError {
	var found *NodeError
	var walk func(error)
	walk = func(e error) {
		switch v := e.(type) {
		case nil:
		case *NodeError:
			if found == nil || v.ID < found.ID {
				found = v
			}
		default:
			if m, ok := e.(interface{ Unwrap() []error }); ok {
				for _, sub := range m.Unwrap() {
					walk(sub)
				}
			} else if u := errors.Unwrap(e); u != nil {
				walk(u)
			}
		}
	}
	walk(err)
	return found
}
