package analysis

import (
	"fmt"

	"repro/internal/ir"
)

// Handles for the external test package: the DCE oracle
// (dce_oracle_test.go), the lifetime oracle (lifetime_oracle_test.go) and
// the checks on the facts DCE hands forward (lifetime_scc_test.go).
var (
	Pure                 = pure
	RegClassOf           = regClassOf
	OracleLifetimeReport = oracleLifetimeReport
)

// LifetimeCounts tallies one LifetimeReport's work.
type LifetimeCounts struct {
	Funcs    int // functions in the program
	Refined  int // functions analysed again under a proven-inside entry
	Repeats  int // analyses in the second and later rounds of recursive components
	Analyses int // analyze calls in all
}

// CountedLifetimeReport is LifetimeReport with its counts.
func CountedLifetimeReport(p *ir.Program) ([]SiteClass, LifetimeCounts) {
	la := newLifetimeAnalysis(p, nil)
	out := la.report()
	n := LifetimeCounts{Funcs: len(la.funcs), Repeats: la.repeats, Analyses: la.analyses}
	for _, fn := range la.funcs {
		if fn.entry == regionInside {
			n.Refined++
		}
	}
	return out, n
}

// HoldsFacts reports whether p holds facts DCE handed forward.
func HoldsFacts(p *ir.Program) bool { return p.Facts() != nil }

// CheckHeldFacts compares every function's held CFG and live-out sets
// with a fresh BuildCFG and Liveness, and reports the first difference.
func CheckHeldFacts(p *ir.Program) error {
	pf, _ := p.Facts().(programFacts)
	if len(pf) != len(p.FuncList) {
		return fmt.Errorf("holds facts for %d of %d functions", len(pf), len(p.FuncList))
	}
	for i, f := range p.FuncList {
		held, fresh := pf[i], BuildCFG(f)
		_, liveOut := Liveness(fresh)
		switch {
		case held.c.F != f:
			return fmt.Errorf("%s: facts of another function (%s)", f.Name, held.c.F.Name)
		case fmt.Sprint(held.c.succ, held.c.succAt, held.c.pred, held.c.predAt, held.c.RPO) !=
			fmt.Sprint(fresh.succ, fresh.succAt, fresh.pred, fresh.predAt, fresh.RPO):
			return fmt.Errorf("%s: held CFG differs from a fresh one", f.Name)
		case held.liveOut.n != len(liveOut):
			return fmt.Errorf("%s: live-out sets for %d blocks, want %d", f.Name, held.liveOut.n, len(liveOut))
		}
		for b := range liveOut {
			if !held.liveOut.row(b).Equal(liveOut[b]) {
				return fmt.Errorf("%s: b%d live-out %v, fresh %v", f.Name, b, held.liveOut.row(b), liveOut[b])
			}
		}
	}
	return nil
}
