package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// runReports runs a repro experiment with -json into the test's own
// directory and returns the reports it wrote.
func runReports(t *testing.T, args ...string) []obs.RunReport {
	t.Helper()
	path := filepath.Join(t.TempDir(), "reports.json")
	mustRun(t, append(args, "-json", path)...)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f obs.ReportFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if f.Schema != obs.ReportSchema || len(f.Reports) == 0 {
		t.Fatalf("%s: schema %q with %d reports", path, f.Schema, len(f.Reports))
	}
	return f.Reports
}

// TestTable2TieredSpills is Table 2 at its default 20,000 vertices and
// 300,000 edges with P′ held to 64 resident pages: every P′ run completes
// through spills and promotions, and spills (a watermark nothing crossed
// would check nothing).
func TestTable2TieredSpills(t *testing.T) {
	reports := runReports(t, "table2", "-v", "20000", "-e", "300000", "-iters", "2", "-heap", "50331648",
		"-tier-dir", t.TempDir(), "-tier-high", "64")
	tiered := 0
	for _, r := range reports {
		if r.Program != "P'" {
			continue
		}
		tiered++
		if n := r.Obs.Counters[obs.CtrPagesSpilled]; n == 0 {
			t.Errorf("%s: %s = 0", r.Name, obs.CtrPagesSpilled)
		}
	}
	if tiered != 6 {
		t.Errorf("%d P' reports, want 6", tiered)
	}
}

// TestFaultMatrixRecovers runs each engine's experiment under injected
// message faults and crashes: it must complete, and every run's report
// must show the recovery it did.
func TestFaultMatrixRecovers(t *testing.T) {
	for _, tc := range []struct {
		name      string
		args      []string
		recovered []string // metrics of which every report must show one > 0
	}{
		{"gps", []string{"gps", "-v", "400", "-e", "4000", "-scales", "1", "-steps", "4",
			"-faults", "drop=0.05,dup=0.02,delay=2ms,crash=1,seed=7"}, []string{"restores"}},
		// A WC run on P that runs out of memory recovers without a crash.
		{"table3", []string{"table3", "-nodes", "2", "-faults", "drop=0.05,dup=0.1,crash=1,seed=9"},
			[]string{"node_restarts", "oom_recoveries"}},
		{"table2", []string{"table2", "-v", "2000", "-e", "30000", "-iters", "2", "-heap", "8388608",
			"-faults", "crash=1,seed=21"}, []string{"worker_restarts"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, r := range runReports(t, tc.args...) {
				var sum float64
				for _, m := range tc.recovered {
					sum += r.Metrics[m]
				}
				if sum == 0 {
					t.Errorf("%s %s: no recovery in %v of %v", r.Name, r.Program, tc.recovered, r.Metrics)
				}
			}
		})
	}
}
