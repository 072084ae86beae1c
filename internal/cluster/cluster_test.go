package cluster

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/facade"
	"repro/internal/faults"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/lower"
	"repro/internal/obs"
	"repro/internal/offheap"
	"repro/internal/stdlib"
	"repro/internal/vm"
)

func testProgram(t *testing.T) *ir.Program {
	t.Helper()
	files, err := stdlib.ParseWith(map[string]string{"t.fj": `
class Work {
    static int square(int x) { return x * x; }
}
`})
	if err != nil {
		t.Fatal(err)
	}
	h, err := lang.BuildHierarchy(files...)
	if err != nil {
		t.Fatal(err)
	}
	if err := lang.Check(h); err != nil {
		t.Fatal(err)
	}
	p, err := lower.Program(h)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNodesAreIsolated(t *testing.T) {
	p := testProgram(t)
	cl, err := New(p, Config{NumNodes: 3, HeapPerNode: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if len(cl.Nodes) != 3 {
		t.Fatal("node count")
	}
	// Shared-nothing: distinct VM and heap instances.
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			if cl.Nodes[i].VM == cl.Nodes[j].VM || cl.Nodes[i].VM.Heap == cl.Nodes[j].VM.Heap {
				t.Fatal("nodes share a VM/heap")
			}
		}
	}
}

func TestParallelEachRunsAllAndPropagatesErrors(t *testing.T) {
	p := testProgram(t)
	cl, err := New(p, Config{NumNodes: 4, HeapPerNode: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	results := make([]int64, 4)
	err = cl.ParallelEach(func(n *Node) error {
		v, err := n.Main.InvokeStatic("Work", "square", vm.I(int64(n.ID+2)))
		if err != nil {
			return err
		}
		results[n.ID] = int64(int32(v))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		want := int64((i + 2) * (i + 2))
		if r != want {
			t.Fatalf("node %d: %d want %d", i, r, want)
		}
	}
	err = cl.ParallelEach(func(n *Node) error {
		if n.ID == 2 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil || err.Error() != "node 2: boom" {
		t.Fatalf("error not tagged with its node: %v", err)
	}
	// Every failing node contributes, not just an arbitrary winner.
	err = cl.ParallelEach(func(n *Node) error {
		if n.ID%2 == 1 {
			return fmt.Errorf("boom %d", n.ID)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "node 1: boom 1") ||
		!strings.Contains(err.Error(), "node 3: boom 3") {
		t.Fatalf("joined error missing a node: %v", err)
	}
	ne := FirstNodeError(err)
	if ne == nil || ne.ID != 1 {
		t.Fatalf("FirstNodeError = %+v", ne)
	}
}

func TestNetworkDeliversAndCounts(t *testing.T) {
	p := testProgram(t)
	cl, err := New(p, Config{NumNodes: 2, HeapPerNode: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Net.Send(Frame{From: 0, To: 1, Tag: "x", Data: []byte("abcd")})
	cl.Net.Send(Frame{From: 1, To: 0, Tag: "y", Data: []byte("zz")})
	f, err := cl.Net.Recv(1)
	if err != nil {
		t.Fatal(err)
	}
	if f.From != 0 || string(f.Data) != "abcd" {
		t.Fatalf("frame: %+v", f)
	}
	g, err := cl.Net.Recv(0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Tag != "y" {
		t.Fatalf("frame: %+v", g)
	}
	if b := cl.Net.Stats().BytesSent; b != 6 {
		t.Fatalf("bytes: %d", b)
	}
}

func TestStatsAggregate(t *testing.T) {
	p := testProgram(t)
	cl, err := New(p, Config{NumNodes: 2, HeapPerNode: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Allocate on node 0 only.
	err = cl.ParallelEach(func(n *Node) error {
		if n.ID != 0 {
			return nil
		}
		for i := 0; i < 100; i++ {
			o, err := n.Main.NewArr("int", 1000)
			if err != nil {
				return err
			}
			n.Main.FreeObj(o)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cl.Report().HeapPeak == 0 {
		t.Fatal("no heap peak recorded")
	}
}

// TestRestartKeepsPeaks: restarting a node must not lose its memory peak;
// the retired VM still bounds the worst node, and its GC history still
// counts. On P and P′ alike, the Report's Memory after the restart is the
// fold of the heap and page-store books of every VM the cluster built: the
// retired one as it stood just before the restart, and the live ones.
func TestRestartKeepsPeaks(t *testing.T) {
	for _, leg := range []struct {
		name string
		prog func(*testing.T) *ir.Program
		run  func(*testing.T, *Node) // a P′ leg's run leaves records behind
	}{
		{"P", testProgram, func(*testing.T, *Node) {}},
		{"P'", keepProgram, func(t *testing.T, n *Node) {
			if _, err := n.Main.Call("MainFacade.main"); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(leg.name, func(t *testing.T) {
			cl, err := New(leg.prog(t), Config{NumNodes: 2, HeapPerNode: 4 << 20})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			n := cl.Nodes[0]
			leg.run(t, n)
			for i := 0; i < 1000; i++ {
				o, err := n.Main.NewArr("int", 1000)
				if err != nil {
					t.Fatal(err)
				}
				n.Main.FreeObj(o)
			}
			leg.run(t, cl.Nodes[1])
			before := cl.Report()
			if before.HeapPeak == 0 || before.PM == 0 {
				t.Fatalf("no peak recorded: %+v", before.Memory)
			}
			retired := memoryOf(n)
			cl.Net.Crash(0)
			if err := cl.RestartNode(0); err != nil {
				t.Fatal(err)
			}
			leg.run(t, cl.Nodes[0])
			after := cl.Report()
			if after.HeapPeak < before.HeapPeak || after.NativePeak < before.NativePeak || after.PM < before.PM {
				t.Fatalf("restart lost peaks: before %+v, after %+v", before.Memory, after.Memory)
			}
			if after.GT < before.GT || after.MinorGCs < before.MinorGCs || after.FullGCs < before.FullGCs {
				t.Fatalf("restart lost GC history: before %+v, after %+v", before.Memory, after.Memory)
			}
			want := retired
			for _, n := range cl.Nodes {
				m := memoryOf(n)
				want.GT += m.GT
				want.MinorGCs += m.MinorGCs
				want.FullGCs += m.FullGCs
				want.HeapPeak = max(want.HeapPeak, m.HeapPeak)
				want.NativePeak = max(want.NativePeak, m.NativePeak)
				want.PM = max(want.PM, m.PM)
			}
			if after.Memory != want {
				t.Fatalf("Report().Memory = %+v, want the fold of every VM's heap and page-store books %+v", after.Memory, want)
			}
		})
	}
}

// memoryOf reads one node VM's Memory off its heap and page-store books,
// not its registry.
func memoryOf(n *Node) obs.Memory {
	hs := n.VM.Heap.Stats()
	m := obs.Memory{GT: hs.GCTime, HeapPeak: hs.PeakUsed, MinorGCs: hs.MinorGCs, FullGCs: hs.FullGCs}
	if n.VM.RT != nil {
		m.NativePeak = n.VM.RT.Stats().PeakBytes
	}
	m.PM = m.HeapPeak + m.NativePeak
	return m
}

// TestUnboundedMailboxNoDeadlock is the regression test for the fixed-cap
// mailbox deadlock: a sender flooding far more frames than the old 1024
// channel capacity must never block, even with no consumer running.
func TestUnboundedMailboxNoDeadlock(t *testing.T) {
	p := testProgram(t)
	cl, err := New(p, Config{NumNodes: 2, HeapPerNode: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 5000; i++ {
			cl.Net.Send(Frame{From: 0, To: 1, Data: []byte("x")})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("sender blocked: mailbox is not unbounded")
	}
	for i := 0; i < 5000; i++ {
		if _, err := cl.Net.Recv(1); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
}

// TestRecvStallNamesNodes: a receiver with a silent peer gets a diagnosable
// error naming the quiet link instead of hanging.
func TestRecvStallNamesNodes(t *testing.T) {
	p := testProgram(t)
	cl, err := New(p, Config{NumNodes: 3, HeapPerNode: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Net.recvTimeout = 50 * time.Millisecond
	cl.Net.Send(Frame{From: 1, To: 2, Data: []byte("only one")})
	if _, err := cl.Net.Recv(2); err != nil {
		t.Fatalf("first frame should arrive: %v", err)
	}
	_, err = cl.Net.Recv(2)
	if err == nil {
		t.Fatal("stalled Recv returned no error")
	}
	if !strings.Contains(err.Error(), "node 2") || !strings.Contains(err.Error(), "node 0") {
		t.Fatalf("stall error does not name the receiver and quiet sender: %v", err)
	}
}

// TestFaultyLinkStillDeliversExactlyOnce: drop/dup/reorder injection must
// not lose or duplicate frames as seen by the receiver.
// TestGatherFilesBySender: whatever order reordering and duplication
// deliver a round in, Gather returns one payload per sender, indexed by
// sender, and a duplicate never stands in for the next round's frame.
func TestGatherFilesBySender(t *testing.T) {
	p := testProgram(t)
	fc, err := faults.Parse("dup=0.5,reorder=0.5,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(p, Config{NumNodes: 4, HeapPerNode: 4 << 20, Faults: &fc})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for round := 0; round < 8; round++ {
		for from := 3; from >= 0; from-- {
			cl.Net.Send(Frame{From: from, To: 2, Data: []byte{byte(round), byte(from)}})
		}
		byFrom, err := cl.Net.Gather(2)
		if err != nil {
			t.Fatal(err)
		}
		for from, d := range byFrom {
			if string(d) != string([]byte{byte(round), byte(from)}) {
				t.Fatalf("round %d: sender %d's slot holds %v", round, from, d)
			}
		}
	}
	if st := cl.Net.Stats(); st.Reorders == 0 || st.Deduped == 0 {
		t.Fatalf("injection had no effect: %+v", st)
	}
}

func TestFaultyLinkStillDeliversExactlyOnce(t *testing.T) {
	p := testProgram(t)
	fc, err := faults.Parse("drop=0.3,dup=0.3,reorder=0.3,seed=99")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(p, Config{NumNodes: 2, HeapPerNode: 4 << 20, Faults: &fc})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const frames = 400
	for i := 0; i < frames; i++ {
		cl.Net.Send(Frame{From: 0, To: 1, Data: []byte{byte(i), byte(i >> 8)}})
	}
	got := make(map[int]int)
	for i := 0; i < frames; i++ {
		f, err := cl.Net.Recv(1)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got[int(f.Data[0])|int(f.Data[1])<<8]++
	}
	for i := 0; i < frames; i++ {
		if got[i] != 1 {
			t.Fatalf("frame %d delivered %d times", i, got[i])
		}
	}
	st := cl.Net.Stats()
	if st.Drops == 0 || st.Dups == 0 || st.Deduped == 0 {
		t.Fatalf("injection had no effect: %+v", st)
	}
}

// TestCrashBlackHolesAndRestartRevives: frames to a crashed node vanish;
// a restarted node receives again on a fresh VM.
func TestCrashBlackHolesAndRestartRevives(t *testing.T) {
	p := testProgram(t)
	cl, err := New(p, Config{NumNodes: 2, HeapPerNode: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	oldVM := cl.Nodes[1].VM
	cl.Net.Send(Frame{From: 0, To: 1, Data: []byte("pending")})
	cl.Net.Crash(1)
	cl.Net.Send(Frame{From: 0, To: 1, Data: []byte("void")})
	if !cl.Net.Crashed(1) {
		t.Fatal("node not marked crashed")
	}
	if err := cl.RestartNode(1); err != nil {
		t.Fatal(err)
	}
	if cl.Nodes[1].VM == oldVM {
		t.Fatal("restart did not build a fresh VM")
	}
	if n := cl.Obs().Snapshot().Counters[obs.CtrNodeRestarts]; n != 1 {
		t.Fatalf("restarts = %d", n)
	}
	// Both the pre-crash queued frame and the black-holed frame are gone.
	if f, ok := cl.Net.TryRecv(1); ok {
		t.Fatalf("crashed node kept frame %q", f.Data)
	}
	cl.Net.Send(Frame{From: 0, To: 1, Data: []byte("alive")})
	f, err := cl.Net.Recv(1)
	if err != nil || string(f.Data) != "alive" {
		t.Fatalf("restarted node recv: %v %q", err, f.Data)
	}
	// The rebuilt VM still executes programs.
	v, err := cl.Nodes[1].Main.InvokeStatic("Work", "square", vm.I(9))
	if err != nil || int32(v) != 81 {
		t.Fatalf("restarted VM broken: %v %d", err, int32(v))
	}
}

// keepProgram is a P′ program whose MainFacade.main leaves 20,000 records in
// the calling thread's root scope.
func keepProgram(t *testing.T) *ir.Program {
	t.Helper()
	_, p2, err := facade.Build(map[string]string{"keep.fj": `
class Cell { int v; Cell next; Cell(int v) { this.v = v; } }
class Main {
    static int main() {
        Cell head = null;
        for (int i = 0; i < 20000; i = i + 1) { Cell c = new Cell(i); c.next = head; head = c; }
        int sum = 0;
        for (Cell c = head; c != null; c = c.next) { sum = sum + c.v; }
        return sum;
    }
}
`}, []string{"Cell", "Main"})
	if err != nil {
		t.Fatal(err)
	}
	return p2
}

// TestCloseReleasesEveryNode runs a P' program that leaves records in each
// node's root scope and spills them to a disk tier, crashes and restarts
// one node, and closes the cluster: every VM it built, the crashed one
// included, must hold no live page manager and leave no spill file. A node
// with a thread still open must make Close fail, naming the node.
func TestCloseReleasesEveryNode(t *testing.T) {
	p2 := keepProgram(t)
	cl, err := New(p2, Config{NumNodes: 2, HeapPerNode: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	dirs := map[*vm.VM]string{}
	fill := func(n *Node) {
		t.Helper()
		dir := t.TempDir()
		if err := n.VM.RT.EnableTiering(offheap.TierConfig{Dir: dir, HighWater: 3, LowWater: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Main.Call("MainFacade.main"); err != nil {
			t.Fatal(err)
		}
		if n.VM.RT.Stats().PagesSpilled == 0 || n.VM.RT.LiveManagers() == 0 {
			t.Fatalf("node %d: the run left no spilled record behind to release: %+v, %d live", n.ID, n.VM.RT.Stats(), n.VM.RT.LiveManagers())
		}
		dirs[n.VM] = dir
	}
	for _, n := range cl.Nodes {
		fill(n)
	}
	crashed := cl.Nodes[0]
	cl.Net.Crash(0)
	if err := cl.RestartNode(0); err != nil {
		t.Fatal(err)
	}
	fill(cl.Nodes[0])
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	for m, dir := range dirs {
		if n := m.RT.LiveManagers(); n != 0 {
			t.Errorf("a node VM (crashed: %v) holds %d live page manager(s) after Close", m == crashed.VM, n)
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Errorf("a node VM (crashed: %v) left %d file(s) in its tier directory", m == crashed.VM, len(left))
		}
	}

	cl, err = New(p2, Config{NumNodes: 2, HeapPerNode: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	extra, err := cl.Nodes[1].VM.NewThread(nil)
	if err != nil {
		t.Fatal(err)
	}
	err = cl.Close()
	var ne *NodeError
	if !errors.As(err, &ne) || ne.ID != 1 || !errors.Is(err, faults.ErrNotReusable) {
		t.Fatalf("Close with a thread open on node 1 returned %v", err)
	}
	extra.Close()
	if err := cl.Nodes[1].VM.Release(); err != nil {
		t.Fatal(err)
	}
}
