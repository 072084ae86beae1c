package analysis

import "repro/internal/ir"

// The lifetime pass's summary solver before it went bottom-up over the
// call graph's strongly connected components: whole-program rounds over
// every function until a round changes nothing. It stays here as the
// oracle the SCC solver is held to (TestSCCSolverMatchesRoundRobin, in
// lifetime_scc_test.go), exported to that test by export_test.go.

// oracleLifetimeReport is LifetimeReport under the round-robin solver. It
// also returns the number of analyze calls it made.
func oracleLifetimeReport(p *ir.Program) ([]SiteClass, int) {
	la := newLifetimeAnalysis(p, nil)
	oracleSolveSummaries(la)
	la.refineEntries()
	var out []SiteClass
	for _, fn := range la.funcs {
		out = fn.classify(out)
	}
	return out, la.analyses
}

// oracleSolveSummaries iterates escape + touchesEpoch summaries to a
// fixpoint. All facts are monotone booleans, so iteration terminates. The
// last round changes nothing, so every function's stored result is its
// analysis under the final summaries.
func oracleSolveSummaries(la *lifetimeAnalysis) {
	for changed := true; changed; {
		changed = false
		// Selector-level touches: union over same-name instance methods.
		for _, fn := range la.funcs {
			if m := fn.f.Method; m != nil && !m.Static && fn.touches && !la.virtTouches[m.Name] {
				la.virtTouches[m.Name] = true
				changed = true
			}
		}
		for _, fn := range la.funcs {
			r := la.analyze(fn)
			for i := range fn.paramEsc {
				if r.escaped[i] && !fn.paramEsc[i] {
					fn.paramEsc[i] = true
					changed = true
				}
			}
			if r.touches && !fn.touches {
				fn.touches = true
				changed = true
			}
		}
	}
}
