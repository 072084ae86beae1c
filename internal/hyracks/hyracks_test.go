package hyracks

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/faults"
	"repro/internal/ir"
	"repro/internal/obs"
)

var progP, progP2 *ir.Program

func programs(t *testing.T) (*ir.Program, *ir.Program) {
	t.Helper()
	if progP == nil {
		p, p2, err := BuildPrograms()
		if err != nil {
			t.Fatal(err)
		}
		progP, progP2 = p, p2
	}
	return progP, progP2
}

// goWordCount is the reference implementation.
func goWordCount(data []byte) map[string]int {
	out := make(map[string]int)
	for _, w := range strings.Fields(string(data)) {
		out[w]++
	}
	return out
}

func parseWCOutput(t *testing.T, fs *dfs.FS) map[string]int {
	t.Helper()
	out := make(map[string]int)
	for _, p := range fs.List("/out/WC/") {
		data, err := fs.Read(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			if line == "" {
				continue
			}
			var w string
			var c int
			if _, err := fmtSscanf(line, &w, &c); err != nil {
				t.Fatalf("bad output line %q: %v", line, err)
			}
			if _, dup := out[w]; dup {
				t.Fatalf("word %q appears in two reducer outputs", w)
			}
			out[w] = c
		}
	}
	return out
}

func fmtSscanf(line string, w *string, c *int) (int, error) {
	i := strings.LastIndexByte(line, ' ')
	*w = line[:i]
	n := 0
	for _, ch := range line[i+1:] {
		n = n*10 + int(ch-'0')
	}
	*c = n
	return 2, nil
}

func TestWordCountCorrectBothPrograms(t *testing.T) {
	p, p2 := programs(t)
	corpus := datagen.CorpusSkewed(20000, 50, 9)
	parts := datagen.Partition(corpus, 3)
	want := goWordCount(corpus)

	for name, prog := range map[string]*ir.Program{"P": p, "P'": p2} {
		fs := dfs.New()
		res, err := RunJob(prog, WordCountJob{}, parts,
			cluster.Config{NumNodes: 3, HeapPerNode: 16 << 20}, 0, fs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.OME {
			t.Fatalf("%s: unexpected OME", name)
		}
		got := parseWCOutput(t, fs)
		if len(got) != len(want) {
			t.Fatalf("%s: %d distinct words, want %d", name, len(got), len(want))
		}
		for w, c := range want {
			if got[w] != c {
				t.Fatalf("%s: count[%q] = %d want %d", name, w, got[w], c)
			}
		}
	}
}

func TestExternalSortCorrectBothPrograms(t *testing.T) {
	p, p2 := programs(t)
	const keyLen, recLen = 8, 32
	recs := datagen.SortRecords(600, keyLen, recLen-keyLen, 3)
	var data []byte
	for _, r := range recs {
		data = append(data, r...)
	}
	// Partition on record boundaries.
	parts := make([][]byte, 3)
	per := (600 / 3) * recLen
	for i := range parts {
		parts[i] = data[i*per : (i+1)*per]
	}
	job := ExternalSortJob{KeyLen: keyLen, RecLen: recLen, RunRecords: 64}

	for name, prog := range map[string]*ir.Program{"P": p, "P'": p2} {
		fs := dfs.New()
		res, err := RunJob(prog, job, parts,
			cluster.Config{NumNodes: 3, HeapPerNode: 16 << 20}, 0, fs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.OME {
			t.Fatalf("%s: unexpected OME", name)
		}
		// Concatenated reducer outputs (in range order) must be the
		// globally sorted dataset.
		var got []byte
		for _, pth := range fs.List("/out/ES/") {
			d, _ := fs.Read(pth)
			got = append(got, d...)
		}
		if len(got) != len(data) {
			t.Fatalf("%s: output %d bytes, want %d", name, len(got), len(data))
		}
		wantSorted := make([][]byte, len(recs))
		for i, r := range recs {
			wantSorted[i] = r
		}
		sort.Slice(wantSorted, func(i, j int) bool {
			return bytes.Compare(wantSorted[i][:keyLen], wantSorted[j][:keyLen]) < 0
		})
		for i := range wantSorted {
			gotRec := got[i*recLen : (i+1)*recLen]
			if !bytes.Equal(gotRec[:keyLen], wantSorted[i][:keyLen]) {
				t.Fatalf("%s: record %d key %q want %q", name, i, gotRec[:keyLen], wantSorted[i][:keyLen])
			}
		}
	}
}

func TestWordCountOMEShape(t *testing.T) {
	// Table 3's qualitative shape in miniature: with a unique-token-heavy
	// corpus and a small per-node heap, P fails with OutOfMemoryError
	// while P' (same total-memory cap) completes.
	p, p2 := programs(t)
	corpus := datagen.CorpusSkewed(600000, 400, 4)
	parts := datagen.Partition(corpus, 2)
	heapCap := int64(2 << 20)
	ccfg := cluster.Config{NumNodes: 2, HeapPerNode: int(heapCap)}

	fs := dfs.New()
	resP, err := RunJob(p, WordCountJob{}, parts, ccfg, 0, fs)
	if err != nil {
		t.Fatalf("P: %v", err)
	}
	if !resP.OME {
		t.Fatalf("P did not OOM (PM=%d): object bloat should exceed the %d heap", resP.PM, heapCap)
	}
	fs2 := dfs.New()
	resP2, err := RunJob(p2, WordCountJob{}, parts, ccfg, heapCap*8, fs2)
	if err != nil {
		t.Fatalf("P': %v", err)
	}
	if resP2.OME {
		t.Fatalf("P' hit the fairness cap too (PM=%d)", resP2.PM)
	}
}

// outputFiles snapshots a job's output directory as path -> contents.
func outputFiles(t *testing.T, fs *dfs.FS, dir string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for _, p := range fs.List(dir) {
		d, err := fs.Read(p)
		if err != nil {
			t.Fatal(err)
		}
		out[p] = d
	}
	return out
}

// TestFaultMatrixJobsMatchBaseline runs word count and external sort under
// network faults and a planned node crash, asserting the produced files are
// byte-identical to a fault-free run of the same job: at-least-once sends
// plus receiver dedup plus engine-held shuffle replay make the faults
// invisible to the output.
func TestFaultMatrixJobsMatchBaseline(t *testing.T) {
	p, p2 := programs(t)

	corpus := datagen.CorpusSkewed(20000, 50, 9)
	wcParts := datagen.Partition(corpus, 3)

	const keyLen, recLen = 8, 32
	recs := datagen.SortRecords(600, keyLen, recLen-keyLen, 3)
	var sortData []byte
	for _, r := range recs {
		sortData = append(sortData, r...)
	}
	sortParts := make([][]byte, 3)
	per := (600 / 3) * recLen
	for i := range sortParts {
		sortParts[i] = sortData[i*per : (i+1)*per]
	}

	jobs := []struct {
		name  string
		job   Job
		parts [][]byte
	}{
		{"WC", WordCountJob{}, wcParts},
		{"ES", ExternalSortJob{KeyLen: keyLen, RecLen: recLen, RunRecords: 64}, sortParts},
	}
	specs := []struct {
		name string
		spec string
	}{
		// A job shuffles only reducers*nodes frames, so the per-frame
		// probabilities run high to guarantee each fault class fires.
		{"net", "drop=0.3,dup=0.5,reorder=0.3,seed=8"},
		{"crash", "crash=1,seed=9"},
		{"all", "drop=0.2,dup=0.5,delay=1ms,delayp=0.3,crash=1,seed=17"},
	}

	for name, prog := range map[string]*ir.Program{"P": p, "P'": p2} {
		for _, j := range jobs {
			cleanFS := dfs.New()
			cleanRes, err := RunJob(prog, j.job, j.parts,
				cluster.Config{NumNodes: 3, HeapPerNode: 16 << 20}, 0, cleanFS)
			if err != nil {
				t.Fatalf("%s/%s fault-free: %v", name, j.name, err)
			}
			if rec := recoveryWork(cleanRes.Obs); cleanRes.OME || len(rec) > 0 {
				t.Fatalf("%s/%s fault-free run not clean: OME=%v rec=%v",
					name, j.name, cleanRes.OME, rec)
			}
			want := outputFiles(t, cleanFS, "/out/"+j.name+"/")

			for _, tc := range specs {
				t.Run(name+"/"+j.name+"/"+tc.name, func(t *testing.T) {
					fc, err := faults.Parse(tc.spec)
					if err != nil {
						t.Fatal(err)
					}
					fs := dfs.New()
					res, err := RunJob(prog, j.job, j.parts, cluster.Config{
						NumNodes: 3, HeapPerNode: 16 << 20, Faults: &fc,
					}, 0, fs)
					if err != nil {
						t.Fatalf("faulty run: %v", err)
					}
					if res.OME {
						t.Fatal("faulty run reported OME")
					}
					got := outputFiles(t, fs, "/out/"+j.name+"/")
					if len(got) != len(want) {
						t.Fatalf("%d output files, want %d", len(got), len(want))
					}
					for pth, d := range want {
						if !bytes.Equal(got[pth], d) {
							t.Fatalf("output %s differs from fault-free run", pth)
						}
					}
					if fc.Drop > 0 && res.Net.Retries == 0 {
						t.Fatal("drop injection produced no retries")
					}
					if fc.Dup > 0 && res.Net.Deduped == 0 {
						t.Fatal("dup injection produced no dedups")
					}
					if rec := res.Obs.Counters; fc.Crashes > 0 {
						// Each crash rebuilds its node and re-runs its
						// reduce task once.
						if rec[obs.CtrCrashes] < 1 || rec[obs.CtrNodeRestarts] != rec[obs.CtrCrashes] ||
							rec[obs.CtrTaskRetries] != rec[obs.CtrCrashes] {
							t.Fatalf("crash not reflected in recovery counters: %v", rec)
						}
					}
				})
			}
		}
	}
}

// TestMapOOMRetriesOnSameNode injects one allocation failure per node early
// in the map phase; every task must recover via the first ladder rung (retry
// on its own node) and the job output must be unaffected.
func TestMapOOMRetriesOnSameNode(t *testing.T) {
	p, _ := programs(t)
	corpus := datagen.CorpusSkewed(20000, 50, 9)
	parts := datagen.Partition(corpus, 3)
	fc := faults.Config{Seed: 3, AllocAt: 2}
	fs := dfs.New()
	res, err := RunJob(p, WordCountJob{}, parts,
		cluster.Config{NumNodes: 3, HeapPerNode: 16 << 20, Faults: &fc}, 0, fs)
	if err != nil {
		t.Fatal(err)
	}
	if res.OME {
		t.Fatal("retryable alloc fault escalated to OME")
	}
	rec := res.Obs.Counters
	if rec[obs.CtrOOMRecoveries] < 1 || rec[obs.CtrTaskRetries] != rec[obs.CtrOOMRecoveries] {
		t.Fatalf("expected one same-node retry per OOM in recovery counters: %v", rec)
	}
	if rec[obs.CtrTasksDegraded] != 0 {
		t.Fatalf("one-shot fault should not reach the helper rung: %v", rec)
	}
	want := goWordCount(corpus)
	got := parseWCOutput(t, fs)
	for w, c := range want {
		if got[w] != c {
			t.Fatalf("count[%q] = %d want %d", w, got[w], c)
		}
	}
}

// TestTaskDrainsToHelperNode uses a probabilistic per-node alloc fault whose
// fixed seed makes one node fail its task twice (initial + retry) while a
// peer stays healthy: the task must drain to the helper and the output must
// still be exact.
func TestTaskDrainsToHelperNode(t *testing.T) {
	p, _ := programs(t)
	corpus := datagen.CorpusSkewed(20000, 50, 9)
	parts := datagen.Partition(corpus, 3)
	fc := faults.Config{Seed: 5, AllocProb: 0.1}
	fs := dfs.New()
	res, err := RunJob(p, WordCountJob{}, parts,
		cluster.Config{NumNodes: 3, HeapPerNode: 16 << 20, Faults: &fc}, 0, fs)
	if err != nil {
		t.Fatal(err)
	}
	if res.OME {
		t.Fatal("degradable fault escalated to OME")
	}
	if rec := res.Obs.Counters; rec[obs.CtrTasksDegraded] < 1 {
		t.Fatalf("expected a task drained to a helper node: %v", rec)
	}
	want := goWordCount(corpus)
	got := parseWCOutput(t, fs)
	if len(got) != len(want) {
		t.Fatalf("%d distinct words, want %d", len(got), len(want))
	}
	for w, c := range want {
		if got[w] != c {
			t.Fatalf("count[%q] = %d want %d", w, got[w], c)
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
