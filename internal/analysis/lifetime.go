package analysis

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/lang"
)

// This file implements the interprocedural allocation-site lifetime pass.
// Every OpNew/OpNewArr the lowering pass numbered (Instr.Site) is placed in
// a three-valued lattice:
//
//   - ir.LifetimeEpochLocal: the allocation happens at a program point
//     provably inside an iteration (the same canIn/canOut region machine
//     the facade-leak lint runs), the value never escapes the allocating
//     frame (no field/array/static store, not returned, not passed to a
//     callee whose summary says the parameter escapes, no virtual call),
//     and it is dead before every point that may cross an iteration
//     boundary (a Sys.iterEnd, or a call into a function that transitively
//     contains one). The class is reported (facadec vet -lifetimes) but
//     has no runtime consumer; see the note below.
//
//   - ir.LifetimeLongLived: the value escapes and the allocation is NOT
//     proven inside an iteration — the shape of setup-phase allocations
//     (graph vertices, edge tables) that survive into the steady state.
//     These pretenure straight into the old generation, skipping scavenge
//     copies. Placement is a pure performance hint; a mispredicted
//     long-lived object is still collected correctly by the full GC.
//
//   - ir.LifetimeUnknown: everything else; allocates exactly as before.
//
// Escape summaries are computed per function by a monotone fixpoint over
// the whole program: for each parameter, whether it may escape (stored,
// returned, or passed along an escaping path), and whether the function
// may transitively execute an iteration boundary ("touchesEpoch").
// Virtual calls are resolved conservatively by selector name: every
// same-name instance method is a possible target.
//
// Why epoch-local is reported and not placed: the proof talks about the
// allocating thread's innermost epoch — a value that never escapes lives
// only in this frame's registers (and callees that provably do not retain
// or cross a boundary), so its live range sits between two boundary
// crossings of its own thread. Freeing it at the crossing would still be
// unsound here, because the VM roots every ref-typed register without
// liveness information: a dead register keeps the address past the
// boundary and the collector would trace a dangling root. Long-lived is
// the one class the heap acts on (pretenuring, internal/heap/lifetime.go),
// and it carries no such obligation.

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
// Instr.Site (index 0 unused). The result is memoized on the program.
func Lifetimes(p *ir.Program) []ir.Lifetime {
	return p.SiteLifetimes(func() []ir.Lifetime {
		out := make([]ir.Lifetime, p.NumSites+1)
		for _, sc := range LifetimeReport(p) {
			out[sc.Site] = sc.Class
		}
		return out
	})
}

// LifetimeReport runs the full analysis and returns every numbered site's
// classification in deterministic (function, block, instruction) order.
func LifetimeReport(p *ir.Program) []SiteClass {
	la := newLifetimeAnalysis(p)
	la.solveSummaries()
	la.refineEntries()
	var out []SiteClass
	for _, f := range p.FuncList {
		out = append(out, la.classifyFunc(f)...)
	}
	return out
}

// --- interprocedural summaries ---------------------------------------------

// funcSummary is the conservative interprocedural summary of one function.
type funcSummary struct {
	// paramEsc[i] reports whether parameter i may escape: stored into a
	// field/array/static, returned, passed to an escaping parameter of a
	// callee, or passed to any virtual call.
	paramEsc []bool
	// touches reports whether the function may execute an iteration
	// boundary (Sys.iterStart/iterEnd), directly or transitively.
	touches bool
}

type lifetimeAnalysis struct {
	p    *ir.Program
	sums map[string]*funcSummary
	// virtTouches[name] reports whether any instance method with that
	// selector name touches an epoch (conservative virtual dispatch).
	virtTouches map[string]bool
	// virtTargets holds selector names invoked by some OpCall; functions
	// implementing one can be entered without a visible IR call site.
	virtTargets map[string]bool
	// entry holds the region-machine entry state (canIn, canOut) assumed
	// for each function. Default is the unknown (true, true).
	entry map[string][2]bool
	cfgs  map[string]*CFG
}

func newLifetimeAnalysis(p *ir.Program) *lifetimeAnalysis {
	la := &lifetimeAnalysis{
		p:           p,
		sums:        make(map[string]*funcSummary, len(p.FuncList)),
		virtTouches: make(map[string]bool),
		virtTargets: make(map[string]bool),
		entry:       make(map[string][2]bool, len(p.FuncList)),
		cfgs:        make(map[string]*CFG, len(p.FuncList)),
	}
	for _, f := range p.FuncList {
		la.sums[f.Name] = &funcSummary{paramEsc: make([]bool, len(f.Params))}
		la.entry[f.Name] = [2]bool{true, true}
		la.cfgs[f.Name] = BuildCFG(f)
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if b.Instrs[i].Op == ir.OpCall && b.Instrs[i].M != nil {
					la.virtTargets[b.Instrs[i].M.Name] = true
				}
			}
		}
	}
	// The program entry starts outside any iteration. Everything else —
	// including functions the Go-side engines call across the boundary —
	// keeps the unknown entry state.
	if _, ok := la.entry["Main.main"]; ok {
		la.entry["Main.main"] = [2]bool{false, true}
	}
	return la
}

func calleeSummaryKey(m *lang.Method) string {
	if m.IsCtor {
		return ir.CtorKey(m.Owner.Name)
	}
	return ir.FuncKey(m.Owner.Name, m.Name)
}

// solveSummaries iterates escape + touchesEpoch summaries to a fixpoint.
// All facts are monotone booleans, so iteration terminates.
func (la *lifetimeAnalysis) solveSummaries() {
	for changed := true; changed; {
		changed = false
		// Selector-level touches: union over same-name instance methods.
		for _, f := range la.p.FuncList {
			if f.Method != nil && !f.Method.Static && la.sums[f.Name].touches &&
				!la.virtTouches[f.Method.Name] {
				la.virtTouches[f.Method.Name] = true
				changed = true
			}
		}
		for _, f := range la.p.FuncList {
			r := la.analyzeFunc(f, nil)
			sum := la.sums[f.Name]
			for i := range f.Params {
				if r.escaped[i] && !sum.paramEsc[i] {
					sum.paramEsc[i] = true
					changed = true
				}
			}
			if r.touches && !sum.touches {
				sum.touches = true
				changed = true
			}
		}
	}
}

// refineEntries runs one sound refinement round over entry contexts: a
// function that is never a virtual-dispatch target, is not the program
// entry, and whose every static call site sits at a proven-inside region
// state inherits the proven-inside entry (true, false). One round only —
// refined facts are derived purely from the conservative round.
func (la *lifetimeAnalysis) refineEntries() {
	type callCtx struct{ seen, allInside bool }
	calls := make(map[string]*callCtx)
	for _, f := range la.p.FuncList {
		r := la.analyzeFunc(f, nil)
		for key, inside := range r.calleeInside {
			c := calls[key]
			if c == nil {
				c = &callCtx{allInside: true}
				calls[key] = c
			}
			c.seen = true
			c.allInside = c.allInside && inside
		}
	}
	for _, f := range la.p.FuncList {
		if f.Name == "Main.main" {
			continue
		}
		if f.Method != nil && !f.Method.Static && la.virtTargets[f.Method.Name] {
			continue
		}
		if c := calls[f.Name]; c != nil && c.seen && c.allInside {
			la.entry[f.Name] = [2]bool{true, false}
		}
	}
}

// classifyFunc produces the final per-site classification for f.
func (la *lifetimeAnalysis) classifyFunc(f *ir.Func) []SiteClass {
	r := la.analyzeFunc(f, nil)
	out := make([]SiteClass, 0, len(r.sites))
	for i, site := range r.sites {
		ti := len(f.Params) + i
		in := &f.Blocks[site.block].Instrs[site.index]
		what := "new ?"
		if in.Op == ir.OpNew && in.Cls != nil {
			what = "new " + in.Cls.Name
		} else if in.Op == ir.OpNewArr && in.Type != nil {
			what = "new " + in.Type.String() + "[]"
		}
		sc := SiteClass{Site: in.Site, Func: f.Name, Pos: in.Pos, What: what}
		switch {
		case !r.escaped[ti] && !r.crossed[ti] && r.inside[i]:
			sc.Class = ir.LifetimeEpochLocal
			sc.Reason = "allocated inside an iteration, never escapes, dead before every boundary"
		case r.escaped[ti] && !r.inside[i]:
			sc.Class = ir.LifetimeLongLived
			sc.Reason = "escapes (" + r.escapeWhy[ti] + ") outside any proven iteration"
		case r.escaped[ti]:
			sc.Class = ir.LifetimeUnknown
			sc.Reason = "escapes (" + r.escapeWhy[ti] + ") inside an iteration"
		case r.crossed[ti]:
			sc.Class = ir.LifetimeUnknown
			sc.Reason = "live across a possible iteration boundary"
		default:
			sc.Class = ir.LifetimeUnknown
			sc.Reason = "allocation not proven inside an iteration"
		}
		out = append(out, sc)
	}
	return out
}

// --- intra-function flow analysis ------------------------------------------

// ltSite is one numbered allocation site within a function.
type ltSite struct {
	block, index int
}

// ltResult is everything one intra-function pass learns about its tracked
// values. Tracked indices are parameters first (0..len(Params)-1), then
// sites in (block, index) order.
type ltResult struct {
	sites     []ltSite
	escaped   []bool   // per tracked value
	escapeWhy []string // first escape reason, per tracked value
	crossed   []bool   // per tracked value: live across a possible boundary
	inside    []bool   // per site: region state proven inside at the alloc
	touches   bool     // function contains/reaches an iteration boundary
	// calleeInside maps each statically called function key to whether
	// every call to it from this function sits at a proven-inside state.
	calleeInside map[string]bool
}

// ltState is the per-block abstract state: one may-alias register set per
// tracked value plus the two-bit iteration region state.
type ltState struct {
	taint         []BitSet
	canIn, canOut bool
}

func newLtState(n, regs int) *ltState {
	s := &ltState{taint: make([]BitSet, n)}
	for i := range s.taint {
		s.taint[i] = NewBitSet(regs)
	}
	return s
}

func (s *ltState) copyFrom(t *ltState) {
	for i := range s.taint {
		s.taint[i].CopyFrom(t.taint[i])
	}
	s.canIn, s.canOut = t.canIn, t.canOut
}

func (s *ltState) mergeFrom(t *ltState) bool {
	changed := false
	for i := range s.taint {
		changed = s.taint[i].UnionWith(t.taint[i]) || changed
	}
	if t.canIn && !s.canIn {
		s.canIn = true
		changed = true
	}
	if t.canOut && !s.canOut {
		s.canOut = true
		changed = true
	}
	return changed
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
		sum := la.sums[calleeSummaryKey(in.M)]
		return sum == nil || sum.touches
	}
	return false
}

// step advances the abstract state across one instruction. sites lists the
// function's tracked sites so the defining instruction regenerates its own
// taint.
func (la *lifetimeAnalysis) step(s *ltState, f *ir.Func, b, j int, sites []ltSite, nParams int) {
	in := &f.Blocks[b].Instrs[j]
	if in.Op == ir.OpIntr {
		switch in.Sym {
		case "iterStart":
			s.canIn, s.canOut = true, false
		case "iterEnd":
			s.canIn, s.canOut = false, true
		}
	}
	if la.epochUnsafe(in) {
		// The callee may leave us in either region.
		s.canIn, s.canOut = true, true
	}
	d := Def(in)
	if d == ir.NoReg {
		return
	}
	for t := range s.taint {
		gen := false
		switch in.Op {
		case ir.OpMove, ir.OpCast:
			gen = s.taint[t].Has(int(in.A))
		case ir.OpNew, ir.OpNewArr:
			if t >= nParams {
				site := sites[t-nParams]
				gen = site.block == b && site.index == j
			}
		}
		if gen {
			s.taint[t].Set(int(d))
		} else {
			s.taint[t].Clear(int(d))
		}
	}
}

// analyzeFunc runs the intra-function fixpoint + replay for f under the
// current summaries and entry contexts. The result is deterministic for a
// given analysis state. entryOverride, if non-nil, replaces the recorded
// entry region state (used by tests).
func (la *lifetimeAnalysis) analyzeFunc(f *ir.Func, entryOverride *[2]bool) *ltResult {
	c := la.cfgs[f.Name]
	_, liveOut := Liveness(c)

	var sites []ltSite
	for b, blk := range f.Blocks {
		if !c.Reachable(b) {
			continue
		}
		for j := range blk.Instrs {
			in := &blk.Instrs[j]
			if (in.Op == ir.OpNew || in.Op == ir.OpNewArr) && in.Site != 0 {
				sites = append(sites, ltSite{block: b, index: j})
			}
		}
	}
	nParams := len(f.Params)
	nTracked := nParams + len(sites)
	r := &ltResult{
		sites:        sites,
		escaped:      make([]bool, nTracked),
		escapeWhy:    make([]string, nTracked),
		crossed:      make([]bool, nTracked),
		inside:       make([]bool, len(sites)),
		calleeInside: make(map[string]bool),
	}

	n := len(f.Blocks)
	if n == 0 {
		return r
	}
	ins := make([]*ltState, n)
	outs := make([]*ltState, n)
	for i := 0; i < n; i++ {
		ins[i] = newLtState(nTracked, f.NumRegs)
		outs[i] = newLtState(nTracked, f.NumRegs)
	}
	ent := la.entry[f.Name]
	if entryOverride != nil {
		ent = *entryOverride
	}
	ins[0].canIn, ins[0].canOut = ent[0], ent[1]
	for i, pr := range f.Params {
		ins[0].taint[i].Set(int(pr))
	}

	tmp := newLtState(nTracked, f.NumRegs)
	for changed := true; changed; {
		changed = false
		for _, b := range c.RPO {
			for _, pred := range c.Preds[b] {
				if c.Reachable(pred) {
					ins[b].mergeFrom(outs[pred])
				}
			}
			tmp.copyFrom(ins[b])
			for j := range f.Blocks[b].Instrs {
				la.step(tmp, f, b, j, sites, nParams)
			}
			if outs[b].mergeFrom(tmp) {
				changed = true
			}
		}
	}

	// Replay each reachable block from its fixpoint in-state, recording
	// escapes, boundary crossings, proven-inside alloc states, and the
	// region state at every static call site.
	escape := func(st *ltState, reg ir.Reg, why string) {
		if reg == ir.NoReg {
			return
		}
		for t := 0; t < nTracked; t++ {
			if st.taint[t].Has(int(reg)) && !r.escaped[t] {
				r.escaped[t] = true
				r.escapeWhy[t] = why
			}
		}
	}
	st := newLtState(nTracked, f.NumRegs)
	for _, b := range c.RPO {
		st.copyFrom(ins[b])
		after := LiveAfter(c, liveOut, b)
		for j := range f.Blocks[b].Instrs {
			in := &f.Blocks[b].Instrs[j]
			switch in.Op {
			case ir.OpNew, ir.OpNewArr:
				if in.Site != 0 {
					for i, site := range sites {
						if site.block == b && site.index == j {
							r.inside[i] = r.inside[i] || (st.canIn && !st.canOut)
						}
					}
				}
			case ir.OpStore:
				escape(st, in.B, "stored into a field")
			case ir.OpAStore:
				escape(st, in.C, "stored into an array")
			case ir.OpStoreStatic:
				escape(st, in.A, "stored into a static")
			case ir.OpRet:
				escape(st, in.A, "returned")
			case ir.OpCall:
				// Conservative virtual dispatch: every argument escapes.
				escape(st, in.A, "passed to a virtual call")
				for _, a := range in.Args {
					escape(st, a, "passed to a virtual call")
				}
			case ir.OpCallStatic:
				if in.M != nil {
					key := calleeSummaryKey(in.M)
					inside := st.canIn && !st.canOut
					if prev, seen := r.calleeInside[key]; seen {
						r.calleeInside[key] = prev && inside
					} else {
						r.calleeInside[key] = inside
					}
					sum := la.sums[key]
					// Effective parameter order mirrors the call
					// convention: receiver (if any) first, then Args.
					args := in.Args
					if in.A != ir.NoReg {
						args = append([]ir.Reg{in.A}, in.Args...)
					}
					for i, a := range args {
						if sum == nil || i >= len(sum.paramEsc) || sum.paramEsc[i] {
							escape(st, a, "passed to "+key)
						}
					}
				} else {
					escape(st, in.A, "passed to an unresolved call")
					for _, a := range in.Args {
						escape(st, a, "passed to an unresolved call")
					}
				}
			case ir.OpIntr:
				if in.Sym == "iterStart" || in.Sym == "iterEnd" {
					r.touches = true
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
			if boundary || unsafe {
				for t := 0; t < nTracked; t++ {
					if r.crossed[t] {
						continue
					}
					live := false
					for reg := 0; reg < f.NumRegs && !live; reg++ {
						if st.taint[t].Has(reg) && after[j].Has(reg) {
							live = true
						}
					}
					if !live && unsafe {
						if in.A != ir.NoReg && st.taint[t].Has(int(in.A)) {
							live = true
						}
						for _, a := range in.Args {
							if a != ir.NoReg && st.taint[t].Has(int(a)) {
								live = true
							}
						}
					}
					if live {
						r.crossed[t] = true
					}
				}
			}
			la.step(st, f, b, j, sites, nParams)
		}
	}
	return r
}
