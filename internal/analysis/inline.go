package analysis

import (
	"repro/internal/ir"
	"repro/internal/lang"
)

// This file implements the closed-world inliner. It runs on program P
// after lowering and before the FACADE transform, so P and P' receive the
// identical optimisation and stay comparable instruction for instruction.
//
// The interpreter has no JIT: every FJ call costs a register-window
// allocation, a frame push and an argument copy, and in P' additionally a
// receiver-pool resolve, a facade bind per data argument and a pageRef
// reload in the callee's prologue (Table 1, cases 1 and 6). The paper's
// JVM inlines the tiny accessors the transform produces; this pass does
// the same job ahead of time.
//
// A call site is inlined when all of the following hold:
//
//   - the target is statically bound: a static method, a constructor, or a
//     virtual call whose receiver has a class static type none of whose
//     subclasses override the method (lang.Class.Overridden — the world is
//     closed, so class-hierarchy analysis is exact);
//   - the callee is not recursive (it sits in no call-graph cycle, counting
//     only statically bound edges) and, after its own callees were inlined
//     into it, is at most inlineBudget instructions long;
//   - caller and callee class are on the same side of the data/control
//     boundary. The transform rewrites a body according to the side of its
//     owner; a control body spliced into a data method would have its heap
//     accesses rewritten into page accesses (and vice versa), turning every
//     inlined field access into an assumption violation.
//
// What inlining preserves:
//
//   - the receiver null check of a virtual call: unless the receiver is
//     provably non-null, an OpNullCheck carrying the call's
//     NullPointerException text takes the call's place;
//   - safepoint and cancellation polls on loops: the VM polls on every
//     jump whose target index is not above the current block's, callee
//     blocks keep their relative order, and any cycle in any numbering has
//     such an edge (the poll at the call itself goes away with the call);
//   - source positions: copied instructions keep the callee's positions;
//   - one lifetime class per allocation site: every copied allocation
//     (OpNew, OpNewArr, Sys.fillNew) gets a fresh Site number, because the
//     copy may be classified differently in its new context.
//
// Callee bodies stay in the program: the Go-side engines enter them across
// the boundary, and polymorphic call sites still dispatch to them.

// inlineBudget is the largest callee, in IR instructions after its own
// inlining, that is spliced into its callers. Measured on the engines'
// Table 2/3 configurations, floor of 14 alternating rounds per budget:
// GraphChi P' takes 375 ms per unit without inlining, 358 at budget 4, 252
// at 8 and is flat from there (265, 270, 260 at 16, 32, 64) — the calls
// that matter are field accessors (2 instructions), constructors (6) and
// ChiVertex.addInEdge (7); GraphChi P goes 460 -> 397 and is flat after 8
// too. Hyracks WC+ES P' keeps gaining slowly (478 -> 428 at 8, 415 at 32,
// 374 at 64), but the four daemon scenarios' P' grows by 2 % at 8, 11 % at
// 16, 21 % at 32 and 28 % at 64, and their cold build + verify + lifetime
// pass by 0 %, 4 %, 11 % and 25 %: every daemon job with an unseen program
// pays that, and retained IR is the program cache's footprint. 8 is the
// largest budget that is free on the compile path.
const inlineBudget = 8

// Inline splices small statically bound callees into their callers across
// the whole program, in place, and returns the number of call sites
// inlined. data is the closed data-class set the transform will use (nil
// when the program is not going to be transformed: everything is control).
func Inline(p *ir.Program, data map[string]bool) int {
	il := &inliner{p: p, data: data, funcs: make([]inlineFunc, len(p.FuncList))}
	il.bindCalls()
	total := 0
	// Tarjan emits strongly connected components callees-first, which is
	// the order that lets a leaf be folded into a mid-level function before
	// that function is considered for its own callers.
	calls := func(fi int) []boundCall { return il.funcs[fi].calls }
	callee := func(c boundCall) int { return c.callee }
	sccs(len(il.funcs), calls, callee, func(scc []int) {
		for _, fi := range scc {
			if n := il.rewrite(fi); n > 0 {
				total += n
				il.funcs[fi].measure()
			}
		}
		// Only now may callers see the members as callees: nothing inside
		// a component is spliced into anything.
		for _, fi := range scc {
			fn := &il.funcs[fi]
			fn.ok = len(scc) == 1 && !fn.selfCall && fn.mergeable && fn.size <= inlineBudget
		}
	})
	return total
}

type inliner struct {
	p    *ir.Program
	data map[string]bool
	// funcs is indexed like p.FuncList.
	funcs []inlineFunc
	// eligible is rewrite's scratch list of the call sites it will splice.
	eligible []boundCall
}

// inlineFunc is the pass's per-function state.
type inlineFunc struct {
	f *ir.Func
	// calls lists the statically bound call sites of the original body.
	// Inlining adds none that matter: whatever stayed a call in a callee's
	// finished body stays one in its caller (same side, same targets).
	calls    []boundCall
	selfCall bool // directly recursive
	// measure fills these in from the current body.
	size int
	// mergeable: the entry block can continue a caller's block, because
	// nothing jumps back to it (lowering never does).
	mergeable bool
	// written has bit i set when the body assigns parameter i; such a
	// parameter cannot be replaced by the caller's argument register.
	written uint64
	rets    int
	// ok, set once the body is final, admits the function as a callee:
	// small, in no call cycle, mergeable.
	ok bool
}

// boundCall is one call site and the index of the function it always
// reaches.
type boundCall struct {
	blk, idx int
	callee   int
}

// bindCalls resolves every call site of the program once: static methods
// and constructors by their method, virtual calls by class-hierarchy
// analysis on the receiver's static class.
func (il *inliner) bindCalls() {
	byMethod := make(map[*lang.Method]int, len(il.p.FuncList))
	for i, f := range il.p.FuncList {
		il.funcs[i].f = f
		if f.Method != nil {
			byMethod[f.Method] = i
		}
	}
	overridden := make(map[*lang.Method]bool) // Owner.Overridden(Name), memoized
	var calls []boundCall                     // one backing array, cut per function below
	counts := make([]int, len(il.funcs))
	for i, f := range il.p.FuncList {
		first := len(calls)
		for bi, b := range f.Blocks {
			for j := range b.Instrs {
				in := &b.Instrs[j]
				switch in.Op {
				case ir.OpCallStatic:
				case ir.OpCall:
					// in.M is what the checker resolved on the receiver's
					// static class; with no override below that class it is
					// the only target. Nothing below the declaring class
					// (the common case) settles it without a class lookup.
					if in.M == nil || in.M.Owner == nil {
						continue
					}
					over, seen := overridden[in.M]
					if !seen {
						over = in.M.Owner.Overridden(in.M.Name)
						overridden[in.M] = over
					}
					if over {
						t := f.RegTypes[in.A]
						if t == nil || t.Kind != lang.TClass {
							continue
						}
						if c := il.p.H.Class(t.Name); c == nil || c.Overridden(in.M.Name) {
							continue
						}
					}
				default:
					continue
				}
				if g, ok := byMethod[in.M]; ok {
					calls = append(calls, boundCall{bi, j, g})
					il.funcs[i].selfCall = il.funcs[i].selfCall || g == i
				}
			}
		}
		counts[i] = len(calls) - first
		il.funcs[i].measure()
	}
	for i, n := range counts {
		il.funcs[i].calls, calls = calls[:n:n], calls[n:]
	}
}

func (il *inliner) sameSide(f, g *ir.Func) bool {
	return f.Class != nil && g.Class != nil && il.data[f.Class.Name] == il.data[g.Class.Name]
}

// measure takes the callee-side measurements of the function's current
// body.
func (fn *inlineFunc) measure() {
	f := fn.f
	fn.size, fn.rets, fn.written = 0, 0, 0
	for _, b := range f.Blocks {
		fn.size += len(b.Instrs)
	}
	fn.mergeable = len(f.Blocks) > 0 && len(f.Params) <= 64
	if fn.size > inlineBudget {
		return // never a callee: the rest is not needed
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Dst != ir.NoReg {
				for pi, pr := range f.Params {
					if pr == in.Dst {
						fn.written |= 1 << uint(pi)
					}
				}
			}
			switch in.Op {
			case ir.OpRet:
				fn.rets++
			case ir.OpJump:
				fn.mergeable = fn.mergeable && in.Blk != 0
			case ir.OpBranch:
				fn.mergeable = fn.mergeable && in.Blk != 0 && in.Blk2 != 0
			}
		}
	}
}

// rewrite inlines every eligible call site of a function and returns their
// number.
func (il *inliner) rewrite(fi int) int {
	f := il.funcs[fi].f
	// The call sites to splice, in program order like fn.calls.
	eligible := il.eligible[:0]
	for _, c := range il.funcs[fi].calls {
		g := &il.funcs[c.callee]
		in := &f.Blocks[c.blk].Instrs[c.idx]
		args := len(in.Args)
		if in.A != ir.NoReg {
			args++
		}
		// g.ok is still unset for fi itself and its component.
		if g.ok && il.sameSide(f, g.f) && args == len(g.f.Params) {
			eligible = append(eligible, c)
		}
	}
	il.eligible = eligible
	sites := len(eligible)
	if sites == 0 {
		return 0
	}

	s := &splicer{il: il, f: f, orig: f.Blocks, origRegs: f.NumRegs,
		out: make([]*ir.Block, 0, len(f.Blocks)+2*sites)}
	// Blocks are only ever appended to s.out, so an index handed out is
	// final: callee blocks land right after the block holding their call
	// site and later caller blocks follow. Only the caller's own
	// terminators still name old block IDs; they are patched at the end.
	// A block without a call site is kept as it is, under its new index.
	start := make([]int, len(f.Blocks))
	terms := make([]*ir.Block, 0, len(f.Blocks)) // blocks ending in one
	for bi, ob := range f.Blocks {
		if len(eligible) == 0 || eligible[0].blk != bi {
			start[bi] = s.adopt(ob).ID
			terms = append(terms, ob)
			continue
		}
		here := 0
		for here < len(eligible) && eligible[here].blk == bi {
			here++
		}
		cur := s.newBlock()
		cur.Instrs = make([]ir.Instr, 0, len(ob.Instrs)+here*inlineBudget)
		start[bi] = cur.ID
		for i := range ob.Instrs {
			in := &ob.Instrs[i]
			if len(eligible) > 0 && eligible[0].blk == bi && eligible[0].idx == i {
				cur = s.splice(cur, in, &il.funcs[eligible[0].callee])
				eligible = eligible[1:]
				continue
			}
			cur.Instrs = append(cur.Instrs, *in)
		}
		terms = append(terms, cur)
	}
	for _, b := range terms {
		in := &b.Instrs[len(b.Instrs)-1]
		switch in.Op {
		case ir.OpBranch:
			in.Blk2 = int32(start[in.Blk2])
			fallthrough
		case ir.OpJump:
			in.Blk = int32(start[in.Blk])
		}
	}
	f.Blocks = s.out
	return sites
}

// regDef records how often a caller register is assigned and by what.
type regDef struct {
	n  int
	in *ir.Instr
}

// splicer rebuilds one caller.
type splicer struct {
	il  *inliner
	f   *ir.Func
	out []*ir.Block
	// orig and origRegs are the caller's blocks and register count before
	// the rewrite.
	orig     []*ir.Block
	origRegs int
	// defs, indexed by the caller's original registers, is built on the
	// first non-null query.
	defs []regDef
}

func (s *splicer) newBlock() *ir.Block { return s.adopt(&ir.Block{}) }

// adopt appends b to the rebuilt function under its new index.
func (s *splicer) adopt(b *ir.Block) *ir.Block {
	b.ID = len(s.out)
	s.out = append(s.out, b)
	return b
}

// nonNull reports whether caller register r provably never holds null
// where it is read: it is the receiver of an instance method (the caller's
// own caller checked it) or its only assignment is an allocation, a string
// literal, or a copy of such a register. Lowering defines every register
// before its uses (the use-before-def lint holds it to that), so a single
// assignment dominates every read.
func (s *splicer) nonNull(r ir.Reg) bool {
	if s.defs == nil {
		// The original body: the caller's blocks are still intact here,
		// adopted or not (a spliced block only ever copies from them).
		s.defs = make([]regDef, s.origRegs)
		for _, b := range s.orig {
			for i := range b.Instrs {
				if d := b.Instrs[i].Dst; d != ir.NoReg {
					s.defs[d].n++
					s.defs[d].in = &b.Instrs[i]
				}
			}
		}
	}
	for hops := 0; hops < 8; hops++ {
		if int(r) >= len(s.defs) {
			return false // a register this pass introduced
		}
		d := s.defs[r]
		if d.n == 0 {
			m := s.f.Method
			return m != nil && !m.Static && len(s.f.Params) > 0 && r == s.f.Params[0]
		}
		if d.n != 1 {
			return false
		}
		switch d.in.Op {
		case ir.OpNew, ir.OpNewArr, ir.OpStrLit:
			return true
		case ir.OpMove:
			r = d.in.A
		default:
			return false
		}
	}
	return false
}

// splice appends the body of g in place of the call instruction, starting
// in block cur, and returns the block in which the caller continues.
func (s *splicer) splice(cur *ir.Block, call *ir.Instr, callee *inlineFunc) *ir.Block {
	g := callee.f
	emit := func(b *ir.Block, in ir.Instr) {
		in.Pos = call.Pos
		b.Instrs = append(b.Instrs, in)
	}
	if call.Op == ir.OpCall && !s.nonNull(call.A) {
		emit(cur, ir.Instr{Op: ir.OpNullCheck, Dst: ir.NoReg, A: call.A, B: ir.NoReg, C: ir.NoReg,
			Sym: "virtual call " + call.M.Name})
	}

	// Map callee registers into the caller's register file. A parameter
	// the callee never assigns is replaced by the argument register itself
	// when the two have the same type (the transform decides heap vs. page
	// access from the register's type, so a null literal flowing into a
	// data-typed parameter must keep the parameter's type).
	regs := make([]ir.Reg, g.NumRegs)
	for i := range regs {
		regs[i] = ir.NoReg
	}
	args := call.Args
	if call.A != ir.NoReg {
		args = append([]ir.Reg{call.A}, call.Args...)
	}
	for i, pr := range g.Params {
		if at := s.f.RegTypes[args[i]]; callee.written&(1<<uint(i)) == 0 && at != nil && at.Equals(g.RegTypes[pr]) {
			regs[pr] = args[i]
			continue
		}
		regs[pr] = s.f.NewReg(g.RegTypes[pr])
		emit(cur, ir.Instr{Op: ir.OpMove, Dst: regs[pr], A: args[i], B: ir.NoReg, C: ir.NoReg})
	}
	for r := range regs {
		if regs[r] == ir.NoReg {
			regs[r] = s.f.NewReg(g.RegTypes[r])
		}
	}
	mapReg := func(r ir.Reg) ir.Reg {
		if r == ir.NoReg {
			return r
		}
		return regs[r]
	}

	// The callee's entry block continues cur; its other blocks follow in
	// order. With a single return the caller simply continues in the block
	// that held it; with several, each jumps to a continuation block.
	blocks := make([]*ir.Block, len(g.Blocks))
	blocks[0] = cur
	for k := 1; k < len(g.Blocks); k++ {
		blocks[k] = s.newBlock()
	}
	var cont *ir.Block
	if callee.rets != 1 {
		cont = s.newBlock()
	}
	after := cont
	for k, gb := range g.Blocks {
		dst := blocks[k]
		first := len(dst.Instrs) // where this callee block's copies start
		for i := range gb.Instrs {
			in := gb.Instrs[i]
			if in.Op == ir.OpRet {
				if in.A != ir.NoReg && call.Dst != ir.NoReg {
					// A value computed by the callee instruction just before
					// the return goes straight into the call's result
					// register: the register it was headed for is private to
					// this splice (a parameter the callee assigns is never
					// replaced by a caller register) and dies with the
					// return. Anything else is moved there.
					last := len(dst.Instrs) - 1
					if last >= first && dst.Instrs[last].Dst == regs[in.A] &&
						classOfType(g.RegTypes[in.A]) == classOfType(s.f.RegTypes[call.Dst]) {
						dst.Instrs[last].Dst = call.Dst
					} else {
						emit(dst, ir.Instr{Op: ir.OpMove, Dst: call.Dst, A: regs[in.A], B: ir.NoReg, C: ir.NoReg})
					}
				}
				if cont == nil {
					after = dst
				} else {
					emit(dst, ir.Instr{Op: ir.OpJump, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Blk: int32(cont.ID)})
				}
				continue
			}
			in.Dst, in.A, in.B, in.C = mapReg(in.Dst), mapReg(in.A), mapReg(in.B), mapReg(in.C)
			if in.Args != nil {
				mapped := make([]ir.Reg, len(in.Args))
				for j, r := range in.Args {
					mapped[j] = regs[r]
				}
				in.Args = mapped
			}
			switch in.Op {
			case ir.OpJump:
				in.Blk = int32(blocks[in.Blk].ID)
			case ir.OpBranch:
				in.Blk, in.Blk2 = int32(blocks[in.Blk].ID), int32(blocks[in.Blk2].ID)
			}
			if in.Site != 0 {
				s.il.p.NumSites++
				in.Site = int32(s.il.p.NumSites)
			}
			dst.Instrs = append(dst.Instrs, in)
		}
	}
	return after
}
