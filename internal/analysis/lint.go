package analysis

import (
	"fmt"
	"strings"

	"repro/internal/ir"
	"repro/internal/lang"
)

// Finding is one facade-safety lint diagnostic.
type Finding struct {
	// Check names the lint: "use-before-def", "facade-leak", "pool-clobber".
	Check string
	// Func is the containing function ("Class.method").
	Func string
	// Pos is the source position of the offending instruction; zero for
	// synthesized code (conversion functions, facade constructors).
	Pos lang.Pos
	Msg string
	// Path is a witness path of block IDs for pool-clobber findings.
	Path []int
}

// String renders the finding as "file:line:col: [check] msg (in func)",
// falling back to the function name when no source position is known.
func (f Finding) String() string {
	var sb strings.Builder
	if f.Pos.Line > 0 {
		fmt.Fprintf(&sb, "%s: ", f.Pos)
	}
	fmt.Fprintf(&sb, "[%s] %s (in %s)", f.Check, f.Msg, f.Func)
	if len(f.Path) > 0 {
		sb.WriteString(" via ")
		for i, b := range f.Path {
			if i > 0 {
				sb.WriteString("->")
			}
			fmt.Fprintf(&sb, "b%d", b)
		}
	}
	return sb.String()
}

// LintProgram runs the facade-safety lints over every function:
// use-before-def on all programs, plus the facade-leak and pool-clobber
// checks on facade-context functions of transformed programs. Findings
// come back in deterministic (function, block, instruction) order. The
// facts DCE handed forward on p are read, not taken.
func LintProgram(p *ir.Program) []Finding {
	facade := FacadeClasses(p)
	pf, _ := p.Facts().(programFacts)
	var out []Finding
	var s scratch
	for i, f := range p.FuncList {
		s.reset()
		ff := pf.factsOf(p, i)
		out = append(out, lintUseBeforeDef(ff.c, &s)...)
		if p.Transformed && f.Class != nil && facade[f.Class.Name] {
			after := liveAfterAll(ff.c, ff.live(&s), &s)
			out = append(out, lintLeaks(p, ff.c, after, facade, &s)...)
			out = append(out, lintPoolClobber(ff.c, after, &s)...)
		}
	}
	return out
}

// lintUseBeforeDef flags registers read on some path before any definition
// (parameters count as defined). Unreachable blocks are skipped.
func lintUseBeforeDef(c *CFG, s *scratch) []Finding {
	f := c.F
	mustIn := mustDefined(c, s)
	defined := s.bitSet(f.NumRegs)
	var out []Finding
	var ubufArr [8]ir.Reg // room for the uses of most instructions
	ubuf := ubufArr[:0]
	for b, blk := range f.Blocks {
		if !c.Reachable(b) {
			continue
		}
		defined.CopyFrom(mustIn.row(b))
		for j := range blk.Instrs {
			in := &blk.Instrs[j]
			ubuf = Uses(in, ubuf[:0])
			for _, r := range ubuf {
				if !defined.Has(int(r)) {
					out = append(out, Finding{
						Check: "use-before-def", Func: f.Name, Pos: in.Pos,
						Msg: fmt.Sprintf("register r%d may be used before it is defined", r),
					})
					defined.Set(int(r)) // report each register once per block
				}
			}
			if d := Def(in); d != ir.NoReg {
				defined.Set(int(d))
			}
		}
	}
	return out
}

// --- facade-leak ----------------------------------------------------------

// The leak analysis is a client of the taint engine (taint.go) with two
// register sets: the registers that may hold a raw page reference, and the
// subset whose record was provably allocated inside the current iteration.
const (
	leakTaint = iota
	leakIter
	leakSets
)

// taintGen reports whether in's destination receives a raw page reference.
func taintGen(p *ir.Program, in *ir.Instr) bool {
	switch in.Op {
	case ir.OpPNew, ir.OpPNewArr, ir.OpPCast:
		return true
	case ir.OpLoad:
		// Unwrapping a facade: Facade.pageRef holds the bound record.
		return in.Field != nil && in.Field.Name == "pageRef"
	case ir.OpPLoad:
		return in.Field != nil && classOfType(in.Field.Type) == cRef
	case ir.OpPALoad:
		return in.Type != nil && classOfType(in.Type) == cRef
	case ir.OpStrLit:
		// The transform retags data-path string literals as page records.
		return in.NumKind == ir.KLong
	case ir.OpCall, ir.OpCallStatic:
		return in.M != nil && isDataArrayType(p, in.M.Ret)
	}
	return false
}

// isDataArrayType reports whether t is an array whose elements are data
// objects — calls returning such arrays hand back raw page references
// (arrays have no facades).
func isDataArrayType(p *ir.Program, t *lang.Type) bool {
	if t == nil || t.Kind != lang.TArray {
		return false
	}
	e := t.Elem
	for e != nil && e.Kind == lang.TArray {
		e = e.Elem
	}
	return e != nil && e.Kind == lang.TClass && (p.DataClasses[e.Name] || e.Name == "Object")
}

// leakStep is the leak analysis's transfer function; the engine has
// already moved s.at across in.
func leakStep(p *ir.Program, s *taintState, in *ir.Instr) {
	d := Def(in)
	if d == ir.NoReg {
		return
	}
	taint, itaint := s.set(leakTaint), s.set(leakIter)
	gen := taintGen(p, in)
	genIter := false
	switch in.Op {
	case ir.OpPNew, ir.OpPNewArr:
		// Allocations provably inside an iteration produce iteration-scoped
		// records (§2.2): the record is reclaimed at Sys.iterEnd.
		genIter = s.at.inside()
	case ir.OpMove:
		gen = taint.Has(int(in.A))
		genIter = itaint.Has(int(in.A))
	case ir.OpPCast:
		genIter = itaint.Has(int(in.A))
	}
	if gen {
		taint.Set(int(d))
	} else {
		taint.Clear(int(d))
	}
	if genIter {
		itaint.Set(int(d))
	} else {
		itaint.Clear(int(d))
	}
}

// lintLeaks flags page references leaking out of the facade world: stores
// into control-heap fields/statics/arrays, raw references passed to
// control-path methods, and iteration-scoped records still live after
// Sys.iterEnd.
func lintLeaks(p *ir.Program, c *CFG, after liveAfter, facade map[string]bool, s *scratch) []Finding {
	f := c.F
	var out []Finding
	leak := func(in *ir.Instr, format string, args ...any) {
		out = append(out, Finding{
			Check: "facade-leak", Func: f.Name, Pos: in.Pos, Msg: fmt.Sprintf(format, args...),
		})
	}
	runTaint(c, after, leakSets, s,
		// The entry is conservative: the function may be invoked either
		// inside or outside an iteration, so neither region is proven.
		func(entry *taintState) { entry.at = regionUnknown },
		func(s *taintState, in *ir.Instr) { leakStep(p, s, in) },
		func(s *taintState, in *ir.Instr, live BitSet) {
			tainted := func(r ir.Reg) bool { return r != ir.NoReg && s.set(leakTaint).Has(int(r)) }
			switch in.Op {
			case ir.OpStore:
				if tainted(in.B) && in.Field != nil && in.Field.Name != "pageRef" {
					leak(in, "page reference (r%d) stored into control-heap field %s.%s", in.B, ownerName(in.Field), in.Field.Name)
				}
			case ir.OpStoreStatic:
				if tainted(in.A) && in.Field != nil && (in.Field.Owner == nil || !facade[in.Field.Owner.Name]) {
					leak(in, "page reference (r%d) stored into static field %s.%s", in.A, ownerName(in.Field), in.Field.Name)
				}
			case ir.OpAStore:
				if tainted(in.C) {
					leak(in, "page reference (r%d) stored into a managed-heap array", in.C)
				}
			case ir.OpCall, ir.OpCallStatic:
				if in.M != nil && in.M.Owner != nil && !facade[in.M.Owner.Name] {
					for _, a := range in.Args {
						if tainted(a) {
							leak(in, "page reference (r%d) passed to control-path method %s.%s", a, in.M.Owner.Name, in.M.Name)
						}
					}
				}
			case ir.OpIntr:
				if in.Sym == "iterEnd" {
					for r := 0; r < f.NumRegs; r++ {
						if s.set(leakIter).Has(r) && live.Has(r) {
							leak(in, "page record in r%d, allocated inside the iteration, is still live after Sys.iterEnd (reclaimed storage escapes its iteration, §2.2)", r)
						}
					}
				}
			}
		})
	return out
}

func ownerName(fl *lang.Field) string {
	if fl.Owner == nil {
		return "?"
	}
	return fl.Owner.Name
}

// --- pool-clobber ---------------------------------------------------------

// lintPoolClobber proves that no pool facade is refetched while a previous
// fetch of the same (class, index) slot is still live: OpPoolGet rebinds
// the singleton facade at that slot, so the earlier register would see its
// record silently swapped. A witness path of block IDs accompanies each
// finding. (Fetches above the §3.3 bound are a verifier error, not a lint.)
func lintPoolClobber(c *CFG, after liveAfter, s *scratch) []Finding {
	f := c.F
	var sites []DefSite
	slot := func(in *ir.Instr) string {
		return fmt.Sprintf("%s[%d]", in.Cls.Name, in.Imm)
	}
	siteAt := map[[2]int]int{}
	for b, blk := range f.Blocks {
		for j := range blk.Instrs {
			if blk.Instrs[j].Op == ir.OpPoolGet {
				siteAt[[2]int{b, j}] = len(sites)
				sites = append(sites, DefSite{Block: b, Index: j})
			}
		}
	}
	if len(sites) < 2 {
		return nil
	}
	reachIn := reachingDefs(c, sites, s)
	reach := s.bitSet(len(sites))
	sitesByReg := map[ir.Reg][]int{}
	for i, s := range sites {
		d := f.Blocks[s.Block].Instrs[s.Index].Dst
		sitesByReg[d] = append(sitesByReg[d], i)
	}
	var out []Finding
	for _, b := range c.RPO {
		reach.CopyFrom(reachIn.row(b))
		for j := range f.Blocks[b].Instrs {
			in := &f.Blocks[b].Instrs[j]
			if in.Op == ir.OpPoolGet {
				for si := range sites {
					if !reach.Has(si) {
						continue
					}
					s1 := &f.Blocks[sites[si].Block].Instrs[sites[si].Index]
					if slot(s1) != slot(in) || s1.Dst == in.Dst {
						continue
					}
					if after.at(b, j).Has(int(s1.Dst)) {
						// PoolGets are transform-synthesized and usually carry
						// no source position; fall back to the earlier fetch's,
						// then to the function's first, so the diagnostic still
						// points into the file.
						pos := in.Pos
						if pos.Line == 0 {
							pos = s1.Pos
						}
						if pos.Line == 0 {
							pos = firstPos(f)
						}
						out = append(out, Finding{
							Check: "pool-clobber", Func: f.Name, Pos: pos,
							Msg: fmt.Sprintf("pool facade %s refetched into r%d while previous fetch r%d (b%d) is still live; rebinding clobbers it",
								slot(in), in.Dst, s1.Dst, sites[si].Block),
							Path: c.WitnessPath(sites[si].Block, b),
						})
					}
				}
			}
			if d := Def(in); d != ir.NoReg {
				for _, si := range sitesByReg[d] {
					reach.Clear(si)
				}
			}
			if si, ok := siteAt[[2]int{b, j}]; ok {
				reach.Set(si)
			}
		}
	}
	return out
}
