package analysis_test

// Differential test for dead-code elimination: the eliminator (one
// liveness solve and one backward sweep per round) against the two-pass
// fixpoint it replaced, kept below as the oracle. Both run on P' built
// with DisableDCE from every FJ program the repo has, with and without
// the inliner.

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/facade"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/gps"
	"repro/internal/graphchi"
	"repro/internal/hyracks"
	"repro/internal/ir"
	"repro/internal/load"
)

// oracleEliminate is the two-pass fixpoint: every round a dead pass and a
// coalesce pass, each solving liveness, until neither changes anything.
func oracleEliminate(p *ir.Program) {
	for _, f := range p.FuncList {
		c := analysis.BuildCFG(f)
		for {
			n := oracleDeadPass(c)
			n += oracleCoalescePass(c)
			if n == 0 {
				break
			}
			p.DCERemoved += n
		}
	}
}

// oracleDeadPass removes pure instructions whose destination is dead, plus
// self-moves, in one liveness round.
func oracleDeadPass(c *analysis.CFG) int {
	_, liveOut := analysis.Liveness(c)
	removed := 0
	for b, blk := range c.F.Blocks {
		live := liveOut[b].Copy()
		dead := make([]bool, len(blk.Instrs))
		for j := len(blk.Instrs) - 1; j >= 0; j-- {
			in := &blk.Instrs[j]
			if in.Op == ir.OpMove && in.Dst == in.A {
				dead[j] = true
				continue
			}
			if analysis.Pure(in) && in.Dst != ir.NoReg && !live.Has(int(in.Dst)) {
				dead[j] = true
				continue
			}
			analysis.StepBack(live, in)
		}
		kept := blk.Instrs[:0]
		for j := range blk.Instrs {
			if dead[j] {
				removed++
			} else {
				kept = append(kept, blk.Instrs[j])
			}
		}
		blk.Instrs = kept
	}
	return removed
}

// oracleCoalescePass folds t = <producer>; v = move t (t dead after the
// move, same register class) from precomputed live-after sets, so it may
// fold only one move per block per round.
func oracleCoalescePass(c *analysis.CFG) int {
	f := c.F
	_, liveOut := analysis.Liveness(c)
	removed := 0
	for b, blk := range f.Blocks {
		after := make([]analysis.BitSet, len(blk.Instrs))
		live := liveOut[b].Copy()
		for j := len(blk.Instrs) - 1; j >= 0; j-- {
			after[j] = live.Copy()
			analysis.StepBack(live, &blk.Instrs[j])
		}
		for j := 0; j+1 < len(blk.Instrs); j++ {
			prod := &blk.Instrs[j]
			mv := &blk.Instrs[j+1]
			if mv.Op != ir.OpMove || prod.Dst == ir.NoReg || prod.Dst != mv.A || mv.Dst == mv.A {
				continue
			}
			if prod.Op == ir.OpJump || prod.Op == ir.OpBranch || prod.Op == ir.OpRet {
				continue
			}
			if after[j+1].Has(int(prod.Dst)) {
				continue
			}
			if analysis.RegClassOf(f, prod.Dst) != analysis.RegClassOf(f, mv.Dst) {
				continue
			}
			prod.Dst = mv.Dst
			blk.Instrs = append(blk.Instrs[:j+1], blk.Instrs[j+2:]...)
			removed++
			break
		}
	}
	return removed
}

// dceInput is one program of the differential. exact inputs must print
// byte-identical IR under both eliminators; the others (generated and
// fuzzer-found programs) only the same instruction count per function:
// where a dead load feeds a move, the two may leave the load writing a
// different register.
type dceInput struct {
	name    string
	sources map[string]string
	data    []string
	exact   bool
}

// dceInputs returns the three engines, the daemon scenarios and
// facade's FuzzBuild corpus (the examples, the differential battery and
// generated programs).
func dceInputs(t *testing.T) []dceInput {
	t.Helper()
	inputs := []dceInput{
		{"graphchi", map[string]string{"graphchi.fj": graphchi.Source}, graphchi.DataClasses, true},
		{"hyracks", map[string]string{"hyracks.fj": hyracks.Source}, hyracks.DataClasses, true},
		{"gps", map[string]string{"gps.fj": gps.Source}, gps.DataClasses, true},
	}
	for _, sc := range load.Scenarios() {
		var data []string
		for _, src := range sc.Sources {
			data = append(data, facade.DataClassesDirective(src)...)
		}
		inputs = append(inputs, dceInput{"scenario-" + sc.Name, sc.Sources, data, true})
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "facade", "testdata", "fuzz", "FuzzBuild", "*"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no FuzzBuild corpus: %v", err)
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		line, ok := strings.CutPrefix(string(raw), "go test fuzz v1\nstring(")
		src, err := strconv.Unquote(strings.TrimSuffix(line, ")\n"))
		if !ok || err != nil {
			t.Fatalf("%s: not a one-string corpus entry", p)
		}
		name := filepath.Base(p)
		exact := strings.HasPrefix(name, "example-") || strings.HasPrefix(name, "battery-")
		inputs = append(inputs, dceInput{name, map[string]string{name + ".fj": src}, facade.DataClassesDirective(src), exact})
	}
	return inputs
}

// buildP2 compiles in, optionally inlines, and transforms it.
func buildP2(in dceInput, inline, disableDCE bool) (*ir.Program, error) {
	p, err := facade.Compile(in.sources)
	if err != nil {
		return nil, err
	}
	opts := core.Options{DataClasses: in.data, DisableDCE: disableDCE}
	if inline {
		data, err := core.DataClosure(p, opts)
		if err != nil {
			return nil, err
		}
		analysis.Inline(p, data)
	}
	return core.Transform(p, opts)
}

func TestSweepMatchesTwoPassFixpoint(t *testing.T) {
	for _, in := range dceInputs(t) {
		for _, inline := range []bool{false, true} {
			name := in.name
			if inline {
				name += "/inlined"
			}
			t.Run(name, func(t *testing.T) {
				if len(in.data) == 0 {
					t.Skip("no data classes: no P'")
				}
				want, err := buildP2(in, inline, true)
				if err != nil {
					if in.exact {
						t.Fatal(err)
					}
					t.Skipf("does not build: %v", err)
				}
				oracleEliminate(want)
				got, err := buildP2(in, inline, false)
				if err != nil {
					t.Fatal(err)
				}
				if got.DCERemoved != want.DCERemoved {
					t.Errorf("removed %d instructions, the oracle %d", got.DCERemoved, want.DCERemoved)
				}
				for _, wf := range want.FuncList {
					gf := got.Funcs[wf.Name]
					switch {
					case gf == nil:
						t.Errorf("%s missing", wf.Name)
					case in.exact && gf.String() != wf.String():
						t.Errorf("%s differs.\ngot:\n%s\nwant:\n%s", wf.Name, gf, wf)
					case gf.NumInstrs() != wf.NumInstrs():
						t.Errorf("%s has %d instructions, the oracle's %d", wf.Name, gf.NumInstrs(), wf.NumInstrs())
					}
				}
			})
		}
	}
}
