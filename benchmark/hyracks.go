package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/hyracks"
	"repro/internal/ir"
	"repro/internal/obs"
)

// The Table 3 configuration at the size where program P dies of
// OutOfMemoryError: 2 nodes of 4 MiB heap, the 10-"GB" dataset at 96 KiB
// per paper-GB, 200 unique tokens per 1000 words, fair cap 8x heap.
const (
	hyNodes   = 2
	hyHeap    = 4 << 20
	hyBytes   = 10 * 96 << 10
	hyUniq    = 200
	hyFairCap = int64(hyHeap) * 8
	esKeyLen  = 8
	esRecLen  = 32
	esRunRecs = 4096
)

// hyInstance runs WordCount then External Sort on P'.
type hyInstance struct {
	prog    *ir.Program
	corpus  []byte
	wcParts [][]byte
	records [][]byte
	esParts [][]byte
	digest  string // output digest every unit must reproduce
	checked bool   // the full reference check ran on one unit's outputs
}

func hyracksWorkload(name, why string) workload {
	return workload{name: name, why: why, setup: func(o options) (instance, map[string]float64, error) {
		start := time.Now()
		h := &hyInstance{}
		h.corpus = datagen.CorpusSkewed(hyBytes, hyUniq, o.seed)
		h.wcParts = datagen.Partition(h.corpus, hyNodes)
		h.records = datagen.SortRecords(hyBytes/esRecLen, esKeyLen, esRecLen-esKeyLen, o.seed)
		per := len(h.records) / hyNodes
		for i := 0; i < hyNodes; i++ {
			lo, hi := i*per, (i+1)*per
			if i == hyNodes-1 {
				hi = len(h.records)
			}
			h.esParts = append(h.esParts, bytes.Join(h.records[lo:hi], nil))
		}
		gen := time.Since(start)
		var err error
		if _, h.prog, err = hyracks.BuildPrograms(); err != nil {
			return nil, nil, err
		}
		return h, map[string]float64{"datagen.gen_s": gen.Seconds()}, nil
	}}
}

// phaseSeconds returns the longest phase event with the given label across
// the nodes: they run the phase in parallel, so the slowest sets its time.
func phaseSeconds(nodes []obs.Snapshot, label string) float64 {
	var longest int64
	for _, snap := range nodes {
		for _, e := range snap.Events {
			if e.Kind == obs.EvPhase && e.Label == label && e.B > longest {
				longest = e.B
			}
		}
	}
	return time.Duration(longest).Seconds()
}

func (h *hyInstance) step(tr *tracer, unit int) (*stepResult, error) {
	runtime.GC() // start every unit from a collected Go heap, untimed
	jobs := []struct {
		job   hyracks.Job
		parts [][]byte
	}{
		{hyracks.WordCountJob{}, h.wcParts},
		{hyracks.ExternalSortJob{KeyLen: esKeyLen, RecLen: esRecLen, RunRecords: esRunRecs}, h.esParts},
	}
	sum := make(map[string]float64)
	var peakPM, peakHeap, peakNative, liveHW float64
	outputs := make([][]byte, 0, len(jobs)*hyNodes)
	var fails []string
	root := tr.begin(-1, unit, unitSpan)
	start := time.Now()
	for _, j := range jobs {
		fs := dfs.New()
		id := tr.begin(root, unit, "hyracks.RunJob")
		jobStart := time.Now()
		res, err := hyracks.RunJob(h.prog, j.job, j.parts,
			cluster.Config{NumNodes: hyNodes, HeapPerNode: hyHeap}, hyFairCap, fs)
		run := time.Since(jobStart)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", j.job.Name(), err)
		}
		if res.OME {
			fails = append(fails, fmt.Sprintf("unit %d: %s exceeded the fair memory cap (%d > %d bytes)", unit, j.job.Name(), res.PM, hyFairCap))
		}
		for r := 0; r < hyNodes; r++ {
			out, err := fs.Read(fmt.Sprintf("/out/%s/part-%d", j.job.Name(), r))
			if err != nil {
				return nil, err
			}
			outputs = append(outputs, out)
		}
		// GC time is summed across nodes that collect in parallel, so it
		// can exceed the job's wall time; the span clips it.
		gc := res.GT
		if gc > run {
			gc = run
		}
		tr.synth(id, "heap.gc", 0, gc)
		sum["vm.run_self_s"] += (run - gc).Seconds()
		sum["heap.gc_s"] += res.GT.Seconds()
		sum["heap.minor_gcs"] += float64(res.MinorGCs)
		sum["heap.full_gcs"] += float64(res.FullGCs)
		for _, snap := range res.NodeObs {
			sum["vm.instructions"] += float64(snap.Counters[obs.CtrInstructions])
			sum["vm.boundary_crossings"] += float64(snap.Counters[obs.CtrBoundaryCalls])
			sum["vm.facade_pool_hits"] += float64(snap.Counters[obs.CtrFacadePoolHits])
			sum["heap.safepoint_wait_s"] += histSeconds(snap, obs.HistSafepointWait)
			sum["offheap.page_acquires"] += float64(snap.Counters[obs.CtrPageAcquires])
			sum["offheap.pages_recycled"] += float64(snap.Counters[obs.CtrPageRecycles])
			liveHW = math.Max(liveHW, float64(snap.Gauges[obs.GaugePagesLive+".hw"]))
		}
		sum["hyracks.map_s"] += phaseSeconds(res.NodeObs, "map")
		sum["hyracks.reduce_s"] += phaseSeconds(res.NodeObs, "reduce")
		sum["hyracks.shuffled_mb"] += res.ShuffledMB
		sum["cluster.frames_sent"] += float64(res.Net.FramesSent)
		sum["cluster.bytes_sent"] += float64(res.Net.BytesSent)
		sum["dfs.bytes_written"] += float64(fs.TotalBytes())
		peakPM = math.Max(peakPM, mb(res.PM))
		peakHeap = math.Max(peakHeap, mb(res.HeapPeak))
		peakNative = math.Max(peakNative, mb(res.NativePeak))
	}
	wall := time.Since(start).Seconds()
	tr.end(root)

	hash := sha256.New()
	for _, out := range outputs {
		hash.Write(out)
	}
	digest := hex.EncodeToString(hash.Sum(nil))
	if !h.checked {
		h.checked, h.digest = true, digest
		fails = append(fails, h.checkOutputs(outputs[:hyNodes], outputs[hyNodes:])...)
	} else if digest != h.digest {
		fails = append(fails, fmt.Sprintf("unit %d: outputs %s, first unit gave %s", unit, digest, h.digest))
	}
	res := &stepResult{wall: wall, durs: []float64{wall}, ends: []float64{wall}, peakMB: peakPM, fails: fails}
	if tr == nil {
		return res, nil
	}
	// hyracks.Result publishes no creation count: every acquire that is
	// not a recycle made a page.
	sum["offheap.pages_created"] = sum["offheap.page_acquires"] - sum["offheap.pages_recycled"]
	res.obs = engineObs(sum, wall, peakHeap, peakNative, liveHW)
	return res, nil
}

// checkOutputs holds one unit's outputs to references that share no code
// with the engine: a Go map over the same corpus for WordCount, and
// sort.Slice over the same records for External Sort.
func (h *hyInstance) checkOutputs(wc, es [][]byte) []string {
	var fails []string
	want := make(map[string]int)
	for _, w := range bytes.Fields(h.corpus) {
		want[string(w)]++
	}
	got := make(map[string]int)
	for _, part := range wc {
		for _, line := range bytes.Split(bytes.TrimSuffix(part, []byte("\n")), []byte("\n")) {
			word, count, ok := bytes.Cut(line, []byte(" "))
			n, err := strconv.Atoi(string(count))
			if !ok || err != nil {
				fails = append(fails, fmt.Sprintf("WordCount: malformed output line %q", line))
				continue
			}
			if _, dup := got[string(word)]; dup {
				fails = append(fails, fmt.Sprintf("WordCount: word %q reduced twice", word))
			}
			got[string(word)] = n
		}
	}
	if len(got) != len(want) {
		fails = append(fails, fmt.Sprintf("WordCount: %d distinct words, reference has %d", len(got), len(want)))
	}
	for w, n := range want {
		if got[w] != n {
			fails = append(fails, fmt.Sprintf("WordCount: %q counted %d, reference %d", w, got[w], n))
			break
		}
	}

	// Reducers own ascending key ranges, so their outputs concatenate
	// into the globally sorted file. Keys may tie, so the order is checked
	// on keys and the content as a multiset.
	sorted := bytes.Join(es, nil)
	if len(sorted) != len(h.records)*esRecLen {
		return append(fails, fmt.Sprintf("External Sort: %d output bytes for %d records", len(sorted), len(h.records)))
	}
	out := make([][]byte, len(h.records))
	for i := range out {
		out[i] = sorted[i*esRecLen : (i+1)*esRecLen]
		if i > 0 && bytes.Compare(out[i-1][:esKeyLen], out[i][:esKeyLen]) > 0 {
			fails = append(fails, fmt.Sprintf("External Sort: record %d is out of key order", i))
			break
		}
	}
	ref := append([][]byte(nil), h.records...)
	sort.Slice(ref, func(i, j int) bool { return bytes.Compare(ref[i], ref[j]) < 0 })
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i], out[j]) < 0 })
	for i := range ref {
		if !bytes.Equal(ref[i], out[i]) {
			fails = append(fails, "External Sort: output is not a permutation of the input records")
			break
		}
	}
	return fails
}

func (h *hyInstance) finish(*tracer) ([]string, map[string][]float64) { return nil, nil }

func (h *hyInstance) close() map[string]float64 { return nil }
