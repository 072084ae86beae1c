package load

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

func newDaemon(t *testing.T, cfg server.Config) *server.Client {
	t.Helper()
	if cfg.JournalPath == "" {
		cfg.JournalPath = "none"
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, stop := context.WithTimeout(context.Background(), 30*time.Second)
		defer stop()
		s.Shutdown(ctx)
	})
	return &server.Client{BaseURL: "http://" + s.Addr()}
}

// TestPlanIsPure: the job plan must be a pure function of (seed, index) —
// same inputs, same assignment — and actually spread work across the
// configured scenarios and tenants.
func TestPlanIsPure(t *testing.T) {
	cfg := Config{Seed: 7, Jobs: 64, Tenants: 3, QuotaEvery: 16, FaultEvery: 5}
	scenarios := map[string]bool{}
	tenants := map[string]bool{}
	quotas, faults := 0, 0
	for k := 0; k < 64; k++ {
		p := Plan(cfg, k)
		if again := Plan(cfg, k); again != p {
			t.Fatalf("plan(%d) not pure: %+v vs %+v", k, p, again)
		}
		scenarios[p.Scenario] = true
		tenants[p.Tenant] = true
		if p.Quota > 0 {
			quotas++
		}
		if p.Faults != "" {
			faults++
		}
	}
	if len(scenarios) != len(Scenarios()) {
		t.Fatalf("64 jobs hit %d/%d scenarios", len(scenarios), len(Scenarios()))
	}
	if len(tenants) != 3 {
		t.Fatalf("64 jobs hit %d/3 tenants", len(tenants))
	}
	if quotas != 4 {
		t.Fatalf("QuotaEvery=16 gave %d quota jobs in 64, want 4", quotas)
	}
	if faults == 0 {
		t.Fatal("FaultEvery=5 produced no fault schedules")
	}
	if p := Plan(Config{Seed: 8, Jobs: 64, Tenants: 3}, 0); p == Plan(cfg, 0) {
		t.Fatal("different seeds produced identical plans")
	}
}

// TestRunDeterministicAcrossRuns is the harness's core contract: two runs
// with the same seed against a live daemon — concurrent clients, mixed
// scenarios, multiple tenants, injected quota failures — produce
// bit-identical per-job results, however the daemon interleaved them.
func TestRunDeterministicAcrossRuns(t *testing.T) {
	c := newDaemon(t, server.Config{MaxConcurrent: 4})
	cfg := Config{
		Seed:       42,
		Jobs:       24,
		Clients:    6,
		Tenants:    3,
		QuotaEvery: 12,
		FaultEvery: 7,
	}

	first, err := Run(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(c, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if first.ResultsDigest != second.ResultsDigest {
		t.Fatalf("same seed, different digests:\n  %s\n  %s", first.ResultsDigest, second.ResultsDigest)
	}
	var a, b bytes.Buffer
	if err := first.WriteResults(&a); err != nil {
		t.Fatal(err)
	}
	if err := second.WriteResults(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("results files differ:\n%s\nvs\n%s", a.String(), b.String())
	}

	// And a different seed must actually change the outputs.
	other, err := Run(c, Config{Seed: 43, Jobs: 24, Clients: 6, Tenants: 3, QuotaEvery: 12, FaultEvery: 7})
	if err != nil {
		t.Fatal(err)
	}
	if other.ResultsDigest == first.ResultsDigest {
		t.Fatal("different seeds produced identical results digests")
	}

	// Sanity on the report itself.
	if first.Jobs != 24 || first.Mode != "closed" {
		t.Fatalf("report echo wrong: jobs=%d mode=%s", first.Jobs, first.Mode)
	}
	if first.States[server.StateDone] == 0 {
		t.Fatalf("no jobs completed: states=%v", first.States)
	}
	// Jobs 12 and 24 ran under a 1-page quota and must have failed
	// deterministically, feeding the OME-rate metric.
	if first.OMECount != 2 {
		t.Fatalf("OMECount = %d, want 2 quota deaths (states=%v)", first.OMECount, first.States)
	}
	if first.LatencyP50NS <= 0 || first.LatencyP99NS < first.LatencyP50NS {
		t.Fatalf("latency percentiles inconsistent: p50=%d p99=%d", first.LatencyP50NS, first.LatencyP99NS)
	}
	if first.JobsPerSec <= 0 {
		t.Fatalf("jobs/s = %v", first.JobsPerSec)
	}
}

// TestRunOpenLoop: rate-paced arrivals complete and report open-loop mode
// with queue-depth samples.
func TestRunOpenLoop(t *testing.T) {
	c := newDaemon(t, server.Config{MaxConcurrent: 2})
	rep, err := Run(c, Config{
		Seed:        5,
		Jobs:        8,
		Clients:     4,
		Rate:        50,
		SampleEvery: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "open" {
		t.Fatalf("mode = %s, want open", rep.Mode)
	}
	if rep.States[server.StateDone] != 8 {
		t.Fatalf("states = %v, want 8 done", rep.States)
	}
	if len(rep.Samples) == 0 {
		t.Fatal("no queue-depth samples collected")
	}
}

// TestConfigValidation: unknown scenarios and bad weights are rejected
// up front, not midway through a run.
func TestConfigValidation(t *testing.T) {
	c := &server.Client{BaseURL: "http://127.0.0.1:1"} // never dialed
	if _, err := Run(c, Config{Mix: map[string]int{"nope": 1}}); err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Fatalf("unknown scenario not rejected: %v", err)
	}
	if _, err := Run(c, Config{Mix: map[string]int{"pagerank": 0}}); err == nil || !strings.Contains(err.Error(), "non-positive weight") {
		t.Fatalf("zero weight not rejected: %v", err)
	}
}
