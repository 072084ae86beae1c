package analysis

import "repro/internal/ir"

// The last sweep the dead-code eliminator runs over a function removes
// nothing, so the liveness it solved is the liveness of the function as the
// transform leaves it. That sweep's CFG and per-block live-out sets are
// exactly what the linter and the lifetime pass would rebuild next, so
// Eliminate hands them forward on the program (ir.Program.StoreFacts):
//
//   - LintProgram reads them and leaves them in place;
//   - Lifetimes takes them, and so releases them;
//   - SeedViolation, the one in-tree rewrite of a finished P′, drops them;
//   - facade.Build drops them before it returns its programs.
//
// They are valid only until the program is rewritten, and a program that
// nobody releases them from keeps them as long as it lives: P and P′ of the
// engines and daemon scenarios then retain about 5–8 % more Go heap
// (TestClassifiedProgramsRetainNoFacts, TestBuiltProgramsRetainNoFacts).

// flowFacts is one function's CFG and, once solved, its per-block live-out
// register sets (a function has at least one block, so an unsolved
// liveOut has no rows).
type flowFacts struct {
	c       *CFG
	liveOut bitTable
}

// programFacts is what Eliminate publishes: flowFacts per function,
// indexed like the program's FuncList.
type programFacts []flowFacts

// factsOf returns the facts of p.FuncList[i]: pf's when it holds them,
// otherwise a fresh CFG whose liveness live solves on first use.
func (pf programFacts) factsOf(p *ir.Program, i int) flowFacts {
	f := p.FuncList[i]
	if i < len(pf) && pf[i].c.F == f {
		return pf[i]
	}
	return flowFacts{c: BuildCFG(f)}
}

// live returns the per-block live-out sets, solving them in s if no one
// handed them over. This is the one liveness solve of the linter and the
// lifetime pass.
func (ff *flowFacts) live(s *scratch) bitTable {
	if ff.liveOut.n == 0 {
		_, ff.liveOut = liveness(ff.c, s)
	}
	return ff.liveOut
}
