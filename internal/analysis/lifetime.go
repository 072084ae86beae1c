package analysis

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/lang"
)

// This file implements the interprocedural allocation-site lifetime pass.
// Every heap allocation the lowering pass numbered (Instr.Site: OpNew,
// OpNewArr, and the Sys.fillNew bulk conversion) is placed in a three-valued
// lattice:
//
//   - ir.LifetimeEpochLocal: the allocation happens at a program point
//     provably inside an iteration (the region machine of taint.go, which
//     the facade-leak lint shares), the value never escapes the allocating
//     frame (no field/array/static store, not returned, not passed to a
//     callee whose summary says the parameter escapes, no virtual call),
//     and it is dead before every point that may cross an iteration
//     boundary (a Sys.iterEnd, or a call into a function that transitively
//     contains one).
//
//   - ir.LifetimeLongLived: the value escapes and the allocation is NOT
//     proven inside an iteration — the shape of setup-phase allocations
//     (graph vertices, edge tables) that survive into the steady state.
//
//   - ir.LifetimeUnknown: everything else.
//
// Escape summaries are computed per function by a monotone fixpoint over
// the whole program: for each parameter, whether it may escape (stored,
// returned, or passed along an escaping path), and whether the function
// may transitively execute an iteration boundary ("touchesEpoch").
// Virtual calls are resolved conservatively by selector name: every
// same-name instance method is a possible target. The fixpoint is solved
// bottom-up over the call graph's strongly connected components, so a
// function is analysed again only inside a recursive component.
//
// The classes are reported (facadec vet -lifetimes) and no runtime acts on
// them. Placing long-lived sites in the old generation (pretenuring) was
// measured and removed: an old-generation allocation takes the heap lock,
// so the placed runs were slower (docs/PERFORMANCE.md). Freeing an
// epoch-local object at its iteration boundary would be unsound here: the
// proof talks about the allocating thread's innermost epoch, but the VM
// roots every ref-typed register without liveness information, so a dead
// register keeps the address past the boundary and the collector would
// trace a dangling root.

// SiteClass is the classification of one allocation site, with enough
// context to render a file:line report (facadec vet -lifetimes).
type SiteClass struct {
	Site   int32
	Func   string
	Pos    lang.Pos
	What   string // "new Cls" or "new Elem[]"
	Class  ir.Lifetime
	Reason string
}

func (s SiteClass) String() string {
	pos := s.Pos.String()
	if s.Pos.Line == 0 {
		pos = s.Func
	}
	return fmt.Sprintf("%s: [lifetime] site #%d %s: %s (%s, in %s)",
		pos, s.Site, s.What, s.Class, s.Reason, s.Func)
}

// Lifetimes returns the per-site lifetime classification of p, indexed by
// Instr.Site (index 0 unused). Each call computes it afresh; the first
// takes the facts DCE handed forward on p (facts.go), which releases them.
func Lifetimes(p *ir.Program) []ir.Lifetime {
	pf, _ := p.TakeFacts().(programFacts)
	la := newLifetimeAnalysis(p, pf)
	la.solve()
	out := make([]ir.Lifetime, p.NumSites+1)
	for _, fn := range la.funcs {
		for i, in := range fn.sites {
			out[in.Site], _ = fn.classOf(i, false)
		}
	}
	return out
}

// LifetimeReport runs the full analysis and returns every numbered site's
// classification in deterministic (function, block, instruction) order.
// It solves its own control-flow facts.
func LifetimeReport(p *ir.Program) []SiteClass {
	return newLifetimeAnalysis(p, nil).report()
}

// solve computes every function's summaries and final result.
func (la *lifetimeAnalysis) solve() {
	la.solveSummaries()
	la.refineEntries()
}

func (la *lifetimeAnalysis) report() []SiteClass {
	la.solve()
	n := 0
	for _, fn := range la.funcs {
		n += len(fn.sites)
	}
	out := make([]SiteClass, 0, n)
	for _, fn := range la.funcs {
		out = fn.classify(out)
	}
	return out
}

// --- interprocedural summaries ---------------------------------------------

// ltFunc is everything the pass holds about one function: the facts that
// never change during a LifetimeReport call (CFG, live-out sets, the
// tracked sites), built once; its conservative interprocedural summary; the
// entry region assumed for it; and the result of its latest analysis. All
// of it is garbage once LifetimeReport returns.
type ltFunc struct {
	index   int // in lifetimeAnalysis.funcs
	f       *ir.Func
	c       *CFG
	liveOut bitTable
	// sites lists the numbered allocations in reachable blocks, in (block,
	// index) order. Tracked values are the parameters (0..len(Params)-1)
	// followed by the sites.
	sites []*ir.Instr
	// paramEsc[i] reports whether parameter i may escape: stored into a
	// field/array/static, returned, passed to an escaping parameter of a
	// callee, or passed to any virtual call.
	paramEsc []bool
	// touches reports whether the function may execute an iteration
	// boundary (Sys.iterStart/iterEnd), directly or transitively.
	touches bool
	// entry is the region assumed on entry; unknown unless proven otherwise.
	entry region
	res   ltResult
	// callees are the indices in lifetimeAnalysis.funcs of the functions
	// this one's summaries read: every static callee and, for a virtual
	// call, every instance method of its selector (virtTouches is per
	// selector). selfCall reports whether the function is among them.
	callees  []int
	selfCall bool
}

type lifetimeAnalysis struct {
	funcs []*ltFunc          // in p.FuncList order
	byKey map[string]*ltFunc // by ir.Func.Name, which is calleeSummaryKey's form
	// virtTouches[name] reports whether any instance method with that
	// selector name touches an epoch (conservative virtual dispatch).
	virtTouches map[string]bool
	// virtTargets holds selector names invoked by some OpCall; functions
	// implementing one can be entered without a visible IR call site.
	virtTargets map[string]bool
	// analyses counts analyze calls; repeats counts those that re-analyse
	// a member of a recursive component after its first round.
	analyses, repeats int
	// s is the working memory of one analyze call: the live-after sets
	// and the taint states of the function it analyses.
	s scratch
}

// newLifetimeAnalysis sets the pass up over p, taking each function's CFG
// and live-out sets from pf where it holds them.
func newLifetimeAnalysis(p *ir.Program, pf programFacts) *lifetimeAnalysis {
	la := &lifetimeAnalysis{
		funcs:       make([]*ltFunc, 0, len(p.FuncList)),
		byKey:       make(map[string]*ltFunc, len(p.FuncList)),
		virtTouches: make(map[string]bool),
		virtTargets: make(map[string]bool),
	}
	methods := make(map[string][]int) // instance methods, by selector
	fns := make([]ltFunc, len(p.FuncList))
	for i, f := range p.FuncList {
		ff := pf.factsOf(p, i)
		if ff.liveOut.n == 0 {
			la.s.reset()
			ff.liveOut = ownTable(ff.live(&la.s))
		}
		fn := &fns[i]
		*fn = ltFunc{
			index: i, f: f, c: ff.c, liveOut: ff.liveOut,
			paramEsc: make([]bool, len(f.Params)),
			entry:    regionUnknown,
		}
		for b, blk := range f.Blocks {
			for j := range blk.Instrs {
				in := &blk.Instrs[j]
				if heapSite(in) && ff.c.Reachable(b) {
					fn.sites = append(fn.sites, in)
				}
				if in.Op == ir.OpCall && in.M != nil {
					la.virtTargets[in.M.Name] = true
				}
			}
		}
		if m := f.Method; m != nil && !m.Static {
			methods[m.Name] = append(methods[m.Name], i)
		}
		la.funcs = append(la.funcs, fn)
		la.byKey[f.Name] = fn
	}
	// The call graph, with each edge once.
	seen := make([]int, len(la.funcs)) // caller index + 1 of the last edge
	for i, fn := range la.funcs {
		edge := func(g int) {
			if seen[g] != i+1 {
				seen[g] = i + 1
				fn.callees = append(fn.callees, g)
				fn.selfCall = fn.selfCall || g == i
			}
		}
		for _, blk := range fn.f.Blocks {
			for j := range blk.Instrs {
				in := &blk.Instrs[j]
				switch {
				case in.M == nil:
				case in.Op == ir.OpCallStatic:
					if g := la.byKey[calleeSummaryKey(in.M)]; g != nil {
						edge(g.index)
					}
				case in.Op == ir.OpCall:
					for _, g := range methods[in.M.Name] {
						edge(g)
					}
				}
			}
		}
	}
	// The program entry starts outside any iteration. Everything else —
	// including functions the Go-side engines call across the boundary —
	// keeps the unknown entry state.
	if fn := la.byKey["Main.main"]; fn != nil {
		fn.entry = regionOutside
	}
	return la
}

// heapSite reports whether in is a numbered allocation of heap objects:
// new, new[], or a Sys.fillNew, which allocates an instance of Cls per
// element of its destination. The page-half twins the transform emits
// allocate records, not objects, and are not classified.
func heapSite(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpNew, ir.OpNewArr:
		return in.Site != 0
	case ir.OpIntr:
		return in.Site != 0 && in.Sym == "fillNew"
	}
	return false
}

func calleeSummaryKey(m *lang.Method) string {
	if m.IsCtor {
		return ir.CtorKey(m.Owner.Name)
	}
	return ir.FuncKey(m.Owner.Name, m.Name)
}

// solveSummaries computes the escape and touchesEpoch summaries bottom-up
// over the call graph's strongly connected components, callees first. A
// function's summaries read only its callees', so the members of a
// component whose callees are all final are analysed once. A recursive
// component is analysed round after round until a round changes nothing,
// so every member's stored result is its analysis under the final
// summaries. All facts are monotone booleans: this reaches the same least
// fixpoint as iterating the whole program until nothing changes, and so
// the same results.
func (la *lifetimeAnalysis) solveSummaries() {
	callees := func(i int) []int { return la.funcs[i].callees }
	sccs(len(la.funcs), callees, func(g int) int { return g }, func(scc []int) {
		recursive := len(scc) > 1 || la.funcs[scc[0]].selfCall
		for round := 0; ; round++ {
			changed := false
			for _, v := range scc {
				fn := la.funcs[v]
				if round > 0 {
					la.repeats++
				}
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
					// Selector-level touches: union over same-name
					// instance methods, every one of them a callee of
					// every virtual call to the selector.
					if m := fn.f.Method; m != nil && !m.Static {
						la.virtTouches[m.Name] = true
					}
				}
			}
			if !recursive || !changed {
				return
			}
		}
	})
}

// refineEntries runs one sound refinement round over entry contexts: a
// function that is never a virtual-dispatch target, is not the program
// entry, and whose every static call site sits at a proven-inside region
// state inherits the proven-inside entry, and is analysed once more under
// it. One round only — the call-site states are read from the conservative
// results, and a function's result depends on no entry but its own.
func (la *lifetimeAnalysis) refineEntries() {
	outside := make(map[string]bool) // callee key -> some call site not proven inside
	for _, fn := range la.funcs {
		for key, out := range fn.res.calleeOutside {
			outside[key] = outside[key] || out
		}
	}
	for _, fn := range la.funcs {
		if fn.f.Name == "Main.main" {
			continue
		}
		if m := fn.f.Method; m != nil && !m.Static && la.virtTargets[m.Name] {
			continue
		}
		if anyOutside, called := outside[fn.f.Name]; called && !anyOutside {
			fn.entry = regionInside
			la.analyze(fn)
		}
	}
}

// classify appends fn's stored result, rendered as its per-site
// classification, to out.
func (fn *ltFunc) classify(out []SiteClass) []SiteClass {
	for i, in := range fn.sites {
		what := "new ?"
		switch {
		case in.Op == ir.OpNew && in.Cls != nil:
			what = "new " + in.Cls.Name
		case in.Op == ir.OpNewArr && in.Type != nil:
			what = "new " + in.Type.String() + "[]"
		case in.Op == ir.OpIntr && in.Cls != nil:
			what = "Sys.fillNew " + in.Cls.Name
		}
		class, reason := fn.classOf(i, true)
		out = append(out, SiteClass{Site: in.Site, Func: fn.f.Name, Pos: in.Pos, What: what, Class: class, Reason: reason})
	}
	return out
}

// classOf returns the class of fn's i-th site under its stored result
// and, when why is set, the reason for it.
func (fn *ltFunc) classOf(i int, why bool) (ir.Lifetime, string) {
	r := &fn.res
	ti := len(fn.f.Params) + i
	escapes := func(where string) string {
		if !why {
			return ""
		}
		return "escapes (" + r.escapeWhy[ti] + ") " + where
	}
	switch {
	case !r.escaped[ti] && !r.crossed[ti] && r.inside[i]:
		return ir.LifetimeEpochLocal, "allocated inside an iteration, never escapes, dead before every boundary"
	case r.escaped[ti] && !r.inside[i]:
		return ir.LifetimeLongLived, escapes("outside any proven iteration")
	case r.escaped[ti]:
		return ir.LifetimeUnknown, escapes("inside an iteration")
	case r.crossed[ti]:
		return ir.LifetimeUnknown, "live across a possible iteration boundary"
	default:
		return ir.LifetimeUnknown, "allocation not proven inside an iteration"
	}
}

// --- intra-function flow analysis ------------------------------------------

// ltResult is everything one intra-function pass learns about its tracked
// values.
type ltResult struct {
	escaped   []bool   // per tracked value
	escapeWhy []string // first escape reason, per tracked value
	crossed   []bool   // per tracked value: live across a possible boundary
	inside    []bool   // per site: region state proven inside at the alloc
	touches   bool     // function contains/reaches an iteration boundary
	// calleeOutside has a key per statically called function: whether some
	// call to it from this function sits at a state not proven inside.
	calleeOutside map[string]bool
}

// epochUnsafe reports whether executing in may cross an iteration boundary
// (other than the iterStart/iterEnd intrinsics, which the region machine
// models directly).
func (la *lifetimeAnalysis) epochUnsafe(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpCall:
		return in.M == nil || la.virtTouches[in.M.Name]
	case ir.OpCallStatic:
		if in.M == nil {
			return true
		}
		callee := la.byKey[calleeSummaryKey(in.M)]
		return callee == nil || callee.touches
	}
	return false
}

// analyze runs the taint engine over fn — one register set per tracked
// value — under the current summaries and fn's entry region, and stores
// and returns the result. It is deterministic for a given analysis state.
func (la *lifetimeAnalysis) analyze(fn *ltFunc) *ltResult {
	la.analyses++
	f, sites := fn.f, fn.sites
	nParams := len(f.Params)
	nTracked := nParams + len(sites)
	// The result is fn's own, cleared for this analysis.
	r := &fn.res
	if r.calleeOutside == nil {
		flags := make([]bool, 2*nTracked+len(sites))
		r.escaped, flags = flags[:nTracked:nTracked], flags[nTracked:]
		r.crossed, r.inside = flags[:nTracked:nTracked], flags[nTracked:]
		r.escapeWhy = make([]string, nTracked)
		r.calleeOutside = make(map[string]bool)
	} else {
		clear(r.escaped)
		clear(r.crossed)
		clear(r.inside)
		clear(r.escapeWhy)
		clear(r.calleeOutside)
		r.touches = false
	}
	// siteOf returns the tracked index of allocation in, or -1.
	siteOf := func(in *ir.Instr) int {
		for i, site := range sites {
			if site == in {
				return nParams + i
			}
		}
		return -1
	}

	seed := func(entry *taintState) {
		entry.at = fn.entry
		for i, pr := range f.Params {
			entry.set(i).Set(int(pr))
		}
	}

	step := func(s *taintState, in *ir.Instr) {
		if la.epochUnsafe(in) {
			// The callee may leave us in either region.
			s.at = regionUnknown
		}
		d := Def(in)
		if d == ir.NoReg {
			return
		}
		// Moves and casts carry their source's taint, the defining
		// allocation generates its own, everything else kills.
		carries := in.Op == ir.OpMove || in.Op == ir.OpCast
		for t := range s.sets.n {
			if set := s.set(t); carries && set.Has(int(in.A)) {
				set.Set(int(d))
			} else {
				set.Clear(int(d))
			}
		}
		if in.Op == ir.OpNew || in.Op == ir.OpNewArr {
			if t := siteOf(in); t >= 0 {
				s.set(t).Set(int(d))
			}
		}
	}

	// visit records escapes, boundary crossings, proven-inside alloc states
	// and the region state at every static call site.
	visit := func(s *taintState, in *ir.Instr, live BitSet) {
		escape := func(reg ir.Reg, why string) {
			if reg == ir.NoReg {
				return
			}
			for t := range s.sets.n {
				if s.set(t).Has(int(reg)) && !r.escaped[t] {
					r.escaped[t] = true
					r.escapeWhy[t] = why
				}
			}
		}
		switch in.Op {
		case ir.OpNew, ir.OpNewArr:
			if t := siteOf(in); t >= 0 && s.at.inside() {
				r.inside[t-nParams] = true
			}
		case ir.OpStore:
			escape(in.B, "stored into a field")
		case ir.OpAStore:
			escape(in.C, "stored into an array")
		case ir.OpStoreStatic:
			escape(in.A, "stored into a static")
		case ir.OpRet:
			escape(in.A, "returned")
		case ir.OpCall:
			// Conservative virtual dispatch: every argument escapes.
			escape(in.A, "passed to a virtual call")
			for _, a := range in.Args {
				escape(a, "passed to a virtual call")
			}
		case ir.OpCallStatic:
			if in.M != nil {
				key := calleeSummaryKey(in.M)
				r.calleeOutside[key] = r.calleeOutside[key] || !s.at.inside()
				callee := la.byKey[key]
				// Effective parameter order mirrors the call
				// convention: receiver (if any) first, then Args.
				args := in.Args
				if in.A != ir.NoReg {
					args = append([]ir.Reg{in.A}, in.Args...)
				}
				for i, a := range args {
					if callee == nil || i >= len(callee.paramEsc) || callee.paramEsc[i] {
						escape(a, "passed to "+key)
					}
				}
			} else {
				escape(in.A, "passed to an unresolved call")
				for _, a := range in.Args {
					escape(a, "passed to an unresolved call")
				}
			}
		case ir.OpIntr:
			if in.Sym == "iterStart" || in.Sym == "iterEnd" {
				r.touches = true
			}
			if t := siteOf(in); t >= 0 {
				// Sys.fillNew stores each object it allocates into its
				// destination: the escape of dst[i] = new C.
				if s.at.inside() {
					r.inside[t-nParams] = true
				}
				if !r.escaped[t] {
					r.escaped[t] = true
					r.escapeWhy[t] = "stored into an array"
				}
			}
		}
		// Boundary crossings: a value live across Sys.iterEnd, or live
		// across / passed into a call that may reach a boundary, is not
		// epoch-local.
		boundary := in.Op == ir.OpIntr && in.Sym == "iterEnd"
		unsafe := la.epochUnsafe(in)
		if unsafe {
			r.touches = true
		}
		if !boundary && !unsafe {
			return
		}
		for t := range s.sets.n {
			if r.crossed[t] {
				continue
			}
			set := s.set(t)
			crossed := intersects(set, live)
			if !crossed && unsafe {
				crossed = in.A != ir.NoReg && set.Has(int(in.A))
				for _, a := range in.Args {
					crossed = crossed || (a != ir.NoReg && set.Has(int(a)))
				}
			}
			r.crossed[t] = crossed
		}
	}

	la.s.reset()
	runTaint(fn.c, liveAfterAll(fn.c, fn.liveOut, &la.s), nTracked, &la.s, seed, step, visit)
	return r
}
