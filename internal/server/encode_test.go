package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"testing"
	"time"

	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/server"
)

// warmStatus is the final status of one scenario's warm-pool run.
type warmStatus struct {
	name string
	st   server.JobStatus
}

// warmJobStatuses runs every load scenario twice on one daemon and returns
// the second, warm-pool run's status per scenario, in scenario order: the
// message a client polls for at the end of each job.
func warmJobStatuses(tb testing.TB) []warmStatus {
	tb.Helper()
	s, err := server.New(server.Config{MaxConcurrent: 1})
	if err != nil {
		tb.Fatal(err)
	}
	defer func() {
		ctx, stop := context.WithTimeout(context.Background(), 30*time.Second)
		defer stop()
		s.Shutdown(ctx)
	}()
	c := &server.Client{BaseURL: "http://" + s.Addr()}
	var out []warmStatus
	for _, sc := range load.Scenarios() {
		seed := int64(42)
		req := server.SubmitRequest{Sources: sc.Sources, Transform: sc.Transform, HeapSize: sc.HeapSize, RandSeed: &seed}
		var st server.JobStatus
		for run := 0; run < 2; run++ {
			resp, err := c.Submit(req)
			if err != nil {
				tb.Fatal(err)
			}
			if st, err = c.Wait(resp.JobID); err == nil {
				err = st.Err()
			}
			if err != nil {
				tb.Fatalf("%s: %v", sc.Name, err)
			}
		}
		if !st.WarmHit {
			tb.Fatalf("%s: second run missed the warm pool", sc.Name)
		}
		out = append(out, warmStatus{sc.Name, st})
	}
	return out
}

// BenchmarkEncodeJobStatus prices the daemon's encoding of a warm job's
// final status, the largest message on the request path.
func BenchmarkEncodeJobStatus(b *testing.B) {
	for _, w := range warmJobStatuses(b) {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := server.EncodeJob(io.Discard, w.st); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestEncodeJobStatusAllocations bounds the encoder's allocations on a
// warm job's status: the struct walk and the map[string]int64 counters
// and gauges allocate nothing, so what is left (1) is boxing the status.
// The bound leaves room for the race detector, under which sync.Pool
// drops some of the encoder states it is given back; an allocation per
// map entry would cost hundreds.
func TestEncodeJobStatusAllocations(t *testing.T) {
	const bound = 32
	for _, w := range warmJobStatuses(t) {
		allocs := testing.AllocsPerRun(50, func() {
			if err := server.EncodeJob(io.Discard, w.st); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per encode", w.name, allocs)
		if allocs > bound {
			t.Errorf("%s: %.0f allocations per encode, want <= %d", w.name, allocs, bound)
		}
	}
}

// TestJobStatusCarriesNumbersNotDistributions: a finished job's status
// carries the run's numbers (the heap, offheap and vm views, counters and
// gauges) and none of its distributions (histograms, events,
// class_allocs), which no daemon client reads and which would make the
// body 7–12 KB. The body stays within 2 KiB.
func TestJobStatusCarriesNumbersNotDistributions(t *testing.T) {
	const maxBody = 2 << 10
	for _, w := range warmJobStatuses(t) {
		var body bytes.Buffer
		if err := server.EncodeJob(&body, w.st); err != nil {
			t.Fatal(err)
		}
		var msg struct {
			Stats map[string]json.RawMessage `json:"stats"`
		}
		if err := json.Unmarshal(body.Bytes(), &msg); err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"heap", "offheap", "vm", "counters", "gauges"} {
			if _, ok := msg.Stats[k]; !ok {
				t.Errorf("%s: the status has no stats.%s", w.name, k)
			}
		}
		for _, k := range []string{"histograms", "events", "class_allocs"} {
			if _, ok := msg.Stats[k]; ok {
				t.Errorf("%s: the status carries stats.%s", w.name, k)
			}
		}
		if sc, _ := load.ScenarioByName(w.name); sc.Transform && w.st.Stats.Counters[obs.CtrPageAcquires] == 0 {
			t.Errorf("%s: a P′ job's status counts no %s", w.name, obs.CtrPageAcquires)
		}
		t.Logf("%s: %d-byte status", w.name, body.Len())
		if body.Len() > maxBody {
			t.Errorf("%s: the status is %d bytes, want <= %d", w.name, body.Len(), maxBody)
		}
	}
}
