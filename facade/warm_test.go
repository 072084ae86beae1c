package facade_test

import (
	"context"
	"runtime"
	"testing"

	"repro/facade"
	"repro/internal/ir"
	"repro/internal/load"
)

// buildScenario builds a load scenario's program the way the daemon does.
func buildScenario(t testing.TB, sc load.Scenario) *ir.Program {
	t.Helper()
	var data []string
	for _, src := range sc.Sources {
		data = append(data, facade.DataClassesDirective(src)...)
	}
	_, p2, err := facade.Build(sc.Sources, data)
	if err != nil {
		t.Fatal(err)
	}
	return p2
}

// TestWarmJobAllocations pins the fixed cost of a job on a warm VM: the
// reset and the run allocate in proportion to what the job uses, not to
// the lock pool's cap, the event ring's limit or the register stack's
// size, which together cost 8,286 allocations and 930 KB per job when
// they were rebuilt for every job.
func TestWarmJobAllocations(t *testing.T) {
	const maxAllocs, maxBytes = 150, 64 << 10
	for _, sc := range load.Scenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			p := buildScenario(t, sc)
			opts := []facade.Option{facade.WithHeapSize(sc.HeapSize), facade.WithRandSeed(1)}
			res, err := facade.Run(p, opts...)
			if err != nil {
				t.Fatal(err)
			}
			res.Close()
			opts = append(opts, facade.WithReusedVM(res.VM))
			job := func() {
				res, err := facade.RunContext(context.Background(), p, opts...)
				if err != nil {
					t.Fatal(err)
				}
				res.Close()
			}
			n := testing.AllocsPerRun(20, job)
			if n > maxAllocs {
				t.Errorf("%.0f allocations per warm job, want at most %d", n, maxAllocs)
			}
			const runs = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				job()
			}
			runtime.ReadMemStats(&after)
			b := (after.TotalAlloc - before.TotalAlloc) / runs
			if b >= maxBytes {
				t.Errorf("%d bytes allocated per warm job, want under %d", b, maxBytes)
			}
			t.Logf("%.0f allocations, %d bytes per warm job", n, b)
		})
	}
}
