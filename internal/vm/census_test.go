package vm_test

import (
	"testing"

	"repro/internal/gps"
	"repro/internal/graphchi"
	"repro/internal/hyracks"
	"repro/internal/ir"
	"repro/internal/vm"
)

// TestEngineCensus pins, for the three engine programs, how many IR
// instructions the linker lowered to how many slots. It is the static
// reading of what fusion saves; a run-time dispatch counter would put work
// on every dispatch to report the dynamic one, which the histogram in
// docs/PERFORMANCE.md ("Interpreter dispatch") gives once.
func TestEngineCensus(t *testing.T) {
	type census struct{ instrs, slots int }
	engines := []struct {
		name  string
		build func() (*ir.Program, *ir.Program, error)
		p, p2 census
	}{
		{"graphchi", graphchi.BuildPrograms, census{515, 442}, census{675, 602}},
		{"hyracks", hyracks.BuildPrograms, census{967, 835}, census{1837, 1661}},
		{"gps", gps.BuildPrograms, census{766, 653}, census{1095, 970}},
	}
	for _, e := range engines {
		p, p2, err := e.build()
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range []*ir.Program{p, p2} {
			if _, err := vm.New(q, vm.Config{HeapSize: 1 << 20}); err != nil {
				t.Fatal(err)
			}
			got := census{instrs: q.NumInstrs()}
			for _, f := range q.FuncList {
				got.slots += len(f.Code.Slots)
			}
			want := []census{e.p, e.p2}[i]
			if got != want {
				t.Errorf("%s (transformed=%v): %d IR instructions -> %d slots, want %d -> %d",
					e.name, q.Transformed, got.instrs, got.slots, want.instrs, want.slots)
			}
		}
	}
}
