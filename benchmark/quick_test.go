package main

import (
	"testing"
)

// TestQuickPass runs every workload's quick pass twice in process. The
// first run takes both passes and must emit every declared metric and
// find every output correct; the second, traced only, must reproduce
// every exact count bit for bit.
func TestQuickPass(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all seven workloads")
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			if w.name != wCompile {
				// compile_cold reads its peak_mb off the process-wide Go
				// heap, so it runs alone, ahead of the parallel ones.
				t.Parallel()
			}
			o := options{seed: defaultSeed, untraced: 1, traced: 1, quick: true, workdir: t.TempDir()}
			first, err := runWorkload(w, o)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range first.failures {
				t.Errorf("failed: %s", f)
			}
			if first.attempted < 4 || first.units == 0 || first.tracedUnits == 0 {
				t.Errorf("attempted %d units (%d untraced, %d traced)", first.attempted, first.units, first.tracedUnits)
			}
			for _, m := range endToEnd {
				v, ok := first.endToEnd[m.name]
				if ok != m.appliesTo(w.name) {
					t.Errorf("end-to-end %s: emitted %v, applies %v", m.name, ok, m.appliesTo(w.name))
				}
				if m.uniform() && v <= 0 {
					t.Errorf("end-to-end %s = %v, must never be 0", m.name, v)
				}
			}
			for _, m := range buildManifest().PerLayer {
				if _, ok := first.perLayer[m.Name]; !ok {
					t.Errorf("per-layer %s was not emitted", m.Name)
				}
			}
			if len(first.perLayer) != len(buildManifest().PerLayer) {
				t.Errorf("%d per-layer metrics emitted, %d declared", len(first.perLayer), len(buildManifest().PerLayer))
			}
			if first.perLayer["trace.unaccounted_share"] > 0.10 {
				t.Errorf("unaccounted share %v", first.perLayer["trace.unaccounted_share"])
			}
			if len(first.spans) == 0 {
				t.Error("the traced pass recorded no spans")
			}

			o.untraced = 0
			second, err := runWorkload(w, o)
			if err != nil {
				t.Fatal(err)
			}
			if second.endToEnd != nil {
				t.Error("a skipped untraced pass reported end-to-end metrics")
			}
			for _, m := range perLayer {
				if m.agg == aggExact && first.perLayer[m.name] != second.perLayer[m.name] {
					t.Errorf("exact count %s: %v then %v", m.name, first.perLayer[m.name], second.perLayer[m.name])
				}
			}
		})
	}
}
