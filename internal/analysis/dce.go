package analysis

import "repro/internal/ir"

// Liveness-driven dead-code elimination. Lowering and the FACADE transform
// both emit instructions whose results are never read (pool fetches for
// discarded values, conversion temporaries, retype moves); removing them
// shrinks the interpreted instruction count, and removing dead OpPoolGets
// lets TightenBounds shrink the §3.3 pool bounds from max-over-signatures
// to max-over-live-ranges.
//
// Only trap-free instructions are candidates: loads, array ops, casts, and
// instanceof checks are kept even when dead so that P and P' still fault
// on exactly the same programs.

// pure reports whether in has no side effect and cannot trap, i.e. it is
// removable when its destination is dead.
func pure(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpConst, ir.OpStrLit, ir.OpMove, ir.OpUn, ir.OpConv, ir.OpPoolGet:
		return true
	case ir.OpBin:
		if in.Sub == ir.BinDiv || in.Sub == ir.BinRem {
			// Integer division traps on zero; double division does not.
			return in.NumKind == ir.KDouble
		}
		return true
	}
	return false
}

// regClassOf mirrors the verifier's machine classes for the move-folding
// safety gate: moves are only folded between registers of the same class
// so that GC root scanning (which walks ref-typed registers) is unchanged.
func regClassOf(f *ir.Func, r ir.Reg) kclass {
	if r == ir.NoReg || int(r) >= len(f.RegTypes) {
		return cAny
	}
	return classOfType(f.RegTypes[r])
}

// Eliminate removes dead pure instructions and folds single-use retype
// moves across the whole program, returning the number of instructions
// removed. The count is also recorded in p.DCERemoved, and the facts of
// each function's last sweep are handed forward on p (facts.go).
func Eliminate(p *ir.Program) int {
	total := 0
	facts := make(programFacts, len(p.FuncList))
	// DCE changes no function's blocks or registers, so the live-out sets
	// it hands forward fit one slab, sized up front.
	nwords := 0
	for _, f := range p.FuncList {
		nwords += len(f.Blocks) * wordsFor(f.NumRegs)
	}
	kept := newScratch(nwords)
	var s scratch
	for i, f := range p.FuncList {
		var n int
		n, facts[i] = eliminateFunc(f, &s, kept)
		total += n
	}
	p.DCERemoved += total
	p.StoreFacts(facts)
	return total
}

// eliminateFunc sweeps one function until a sweep removes nothing and
// returns the number of instructions removed, with the CFG and the live-out
// sets of that last sweep. A sweep's live set is exact within a block, but
// a removal can end the last use of a value that a predecessor defines, or
// bring a producer next to its move, and only the next sweep sees that.
// The sweeps solve in s; the live-out sets handed back are copied into
// kept, which the program keeps.
func eliminateFunc(f *ir.Func, s, kept *scratch) (int, flowFacts) {
	removed := 0
	c := BuildCFG(f) // CFG shape never changes: terminators are not pure
	for {
		s.reset()
		n, liveOut := sweep(c, s)
		if n == 0 {
			return removed, flowFacts{c: c, liveOut: kept.copyTable(liveOut)}
		}
		removed += n
	}
}

// sweep solves liveness once, then walks each block backward keeping the
// live set current. On the way it drops self-moves and pure instructions
// whose destination is dead, and folds
//
//	t = <producer> ; v = move t   (t dead after the move)
//
// into one instruction writing v, when t and v share a machine register
// class. The folded producer is visited next with the same live set, so a
// chain of moves collapses in one walk. Returns the number removed and the
// live-out sets it started from, carved out of s.
func sweep(c *CFG, s *scratch) (int, bitTable) {
	f := c.F
	_, liveOut := liveness(c, s)
	live := s.bitSet(f.NumRegs)
	removed := 0
	for b, blk := range f.Blocks {
		live.CopyFrom(liveOut.row(b))
		instrs := blk.Instrs
		w := len(instrs) // kept instructions fill instrs[w:], back to front
		for j := len(instrs) - 1; j >= 0; j-- {
			in := &instrs[j]
			switch {
			case in.Op == ir.OpMove && in.Dst == in.A:
				// A self-move neither defines nor uses anew.
			case pure(in) && in.Dst != ir.NoReg && !live.Has(int(in.Dst)):
				// Dead: skip StepBack, its uses stay dead.
			case in.Op == ir.OpMove && j > 0 && instrs[j-1].Dst == in.A &&
				!live.Has(int(in.A)) && regClassOf(f, in.A) == regClassOf(f, in.Dst):
				// Operands are read before the destination is written, so
				// the producer may write v even if it reads v.
				instrs[j-1].Dst = in.Dst
			default:
				StepBack(live, in)
				w--
				instrs[w] = *in
				continue
			}
			removed++
		}
		if w > 0 {
			blk.Instrs = instrs[:copy(instrs, instrs[w:])]
		}
	}
	return removed, liveOut
}

// TightenBounds shrinks the §3.3 pool bounds of a transformed program to
// the highest pool index actually fetched after DCE, per pool (never below
// one slot). The transform never calls it: programs entered through the Go
// boundary (vm.bindParamFacade) size pools by signature, so only pure-FJ
// programs could tighten; facade.Vet reports the result on a copy. Returns
// the tightened bounds map.
func TightenBounds(p *ir.Program) map[string]int {
	if p.Bounds == nil {
		return nil
	}
	maxIdx := map[string]int{}
	for _, f := range p.FuncList {
		for _, b := range f.Blocks {
			for j := range b.Instrs {
				in := &b.Instrs[j]
				if in.Op != ir.OpPoolGet || in.Cls == nil {
					continue
				}
				orig, _ := ir.FacadeOrig(in.Cls.Name)
				if n := int(in.Imm) + 1; n > maxIdx[orig] {
					maxIdx[orig] = n
				}
			}
		}
	}
	for orig, bound := range p.Bounds {
		need := maxIdx[orig]
		if need < 1 {
			need = 1
		}
		if need < bound {
			p.Bounds[orig] = need
		}
	}
	return p.Bounds
}
