package server

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/facade"
	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden protocol fixtures")

// TestGoldenJobSchema byte-pins the facade.job/v1 wire format: every
// message kind is encoded deterministically and compared against a
// checked-in fixture, so any field rename, addition, or encoding change
// shows up as a diff that must be deliberate (and versioned).
func TestGoldenJobSchema(t *testing.T) {
	seed := int64(7)
	msgs := []struct {
		name string
		v    any
	}{
		{"submit_request", SubmitRequest{
			Schema:      Schema,
			Tenant:      "analytics",
			Priority:    3,
			Sources:     map[string]string{"job.fj": "class Main { static void main() { Sys.println(42); } }"},
			Transform:   true,
			DataClasses: []string{"Vertex", "Edge"},
			Entry:       "Main.main",
			HeapSize:    32 << 20,
			PageQuota:   128,
			RandSeed:    &seed,
			Faults:      "alloc=0.001,seed=7",

			DeadlineMillis: 30000,
			MaxAttempts:    3,
		}},
		{"submit_response", SubmitResponse{
			Schema: Schema,
			JobID:  "job-000001",
			State:  StateQueued,
		}},
		{"job_status", JobStatus{
			Schema:  Schema,
			JobID:   "job-000001",
			Tenant:  "analytics",
			State:   StateDone,
			WarmHit: true,
			Output:  "42\n",
			Stats: &facade.RunStats{Snapshot: obs.Snapshot{
				// The instruments the heap and the page store count in,
				// besides those the views below the snapshot read.
				Counters: map[string]int64{
					obs.CtrPromoted: 0, obs.CtrMarked: 0,
					obs.CtrPagesCreated: 0, obs.CtrOversize: 0, obs.CtrManagers: 0, obs.CtrRecordsReleased: 0,
				},
				Gauges: map[string]int64{
					obs.GaugeHeapUsed: 0, obs.GaugeHeapUsed + ".hw": 0,
					obs.GaugeLiveAfterGC: 0, obs.GaugeLiveAfterGC + ".hw": 0,
					obs.GaugeNurseryBytes: 0, obs.GaugeNurseryBytes + ".hw": 0,
					obs.GaugeBytesInUse: 0, obs.GaugeBytesInUse + ".hw": 0,
				},
			}},
			QueuedNanos:  1500,
			RunningNanos: 250000,
		}},
		{"job_status_failed", JobStatus{
			Schema:         Schema,
			JobID:          "job-000002",
			Tenant:         "analytics",
			State:          StateFailed,
			Error:          "job job-000002 exceeded its deadline of 30s",
			ErrorKind:      ErrKindDeadline,
			Attempt:        2,
			DeadlineMillis: 30000,
			QueuedNanos:    1500,
			RunningNanos:   250000,
		}},
		{"server_status", ServerStatus{
			Schema:       Schema,
			PID:          4242,
			Started:      "2026-01-02T03:04:05Z",
			Phase:        PhaseReady,
			JobsReplayed: 2,
			JobsRetried:  1,
			HeapBudget:   1 << 30,
			HeapReserved: 96 << 20,
			JobsQueued:   1,
			JobsRunning:  2,
			JobsDone:     17,
			JobsFailed:   1,
			JobsCanceled: 1,
			JobsRejected: 3,
			WarmPoolSize: 2,
			WarmHits:     14,
			WarmMisses:   5,
			PoolRebuilds: 1,
			Tenants: map[string]TenantStatus{
				"analytics": {HeapBudget: 256 << 20, HeapReserved: 96 << 20, JobsQueued: 1, JobsRunning: 2},
			},
		}},
		{"error_response", ErrorResponse{
			Schema:           Schema,
			Error:            "aggregate heap budget exhausted: 1006632960 reserved + 67108864 requested > 1073741824",
			RetryAfterMillis: 500,
		}},
		{"ready_status", ReadyStatus{
			Schema: Schema,
			Ready:  false,
			Phase:  PhaseReplaying,
		}},
	}

	var buf bytes.Buffer
	for _, m := range msgs {
		buf.WriteString("== " + m.name + " ==\n")
		if err := EncodeJob(&buf, m.v); err != nil {
			t.Fatalf("encode %s: %v", m.name, err)
		}
		buf.WriteString("\n")
	}

	golden := filepath.Join("testdata", "job_v1.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("facade.job/v1 encoding changed — if intentional, bump the schema and regenerate with -update.\ngot:\n%s\nwant:\n%s",
			buf.Bytes(), want)
	}
}

// TestValidateRejectsBadRequests pins the protocol-level validation.
func TestValidateRejectsBadRequests(t *testing.T) {
	good := SubmitRequest{Schema: Schema, Sources: map[string]string{"a.fj": "x"}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	cases := map[string]SubmitRequest{
		"wrong schema":  {Schema: "facade.job/v0", Sources: map[string]string{"a.fj": "x"}},
		"no schema":     {Sources: map[string]string{"a.fj": "x"}},
		"no sources":    {Schema: Schema},
		"neg heap":      {Schema: Schema, Sources: map[string]string{"a.fj": "x"}, HeapSize: -1},
		"neg quota":     {Schema: Schema, Sources: map[string]string{"a.fj": "x"}, PageQuota: -1},
		"neg deadline":  {Schema: Schema, Sources: map[string]string{"a.fj": "x"}, DeadlineMillis: -1},
		"huge deadline": {Schema: Schema, Sources: map[string]string{"a.fj": "x"}, DeadlineMillis: 1<<63 - 1},
		"neg attempts":  {Schema: Schema, Sources: map[string]string{"a.fj": "x"}, MaxAttempts: -1},
		"huge attempts": {Schema: Schema, Sources: map[string]string{"a.fj": "x"}, MaxAttempts: 99},
		"bad faults":    {Schema: Schema, Sources: map[string]string{"a.fj": "x"}, Faults: "drop=NaN"},
	}
	for name, req := range cases {
		if err := req.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// An older client's body may carry tier_low_pages, even above the high
	// watermark: it decodes to the request without the key, which runs at
	// the default watermark.
	const body = `{"schema":"facade.job/v1","sources":{"a.fj":"x"},"tier_high_pages":2`
	withKey, err := decodeSubmit(strings.NewReader(body + `,"tier_low_pages":5}`))
	if err != nil {
		t.Fatalf("older client's tier_low_pages refused: %v", err)
	}
	if without, err := decodeSubmit(strings.NewReader(body + `}`)); err != nil || !reflect.DeepEqual(withKey, without) {
		t.Fatalf("tier_low_pages changed the request: %+v vs %+v (%v)", withKey, without, err)
	}
}
