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

// regClassOf mirrors the verifier's machine classes for the coalescing
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
// removed. The count is also recorded in p.DCERemoved.
func Eliminate(p *ir.Program) int {
	total := 0
	for _, f := range p.FuncList {
		total += EliminateFunc(f)
	}
	p.DCERemoved += total
	return total
}

// EliminateFunc runs the DCE fixpoint on one function and returns the
// number of instructions removed.
func EliminateFunc(f *ir.Func) int {
	removed := 0
	c := BuildCFG(f) // CFG shape never changes: terminators are not pure
	for {
		n := deadPass(c)
		n += coalescePass(c)
		if n == 0 {
			return removed
		}
		removed += n
	}
}

// deadPass removes pure instructions whose destination is dead, plus
// self-moves, in one liveness round. Returns the number removed.
func deadPass(c *CFG) int {
	f := c.F
	_, liveOut := Liveness(c)
	removed := 0
	for b, blk := range f.Blocks {
		live := liveOut[b].Copy()
		dead := make([]bool, len(blk.Instrs))
		for j := len(blk.Instrs) - 1; j >= 0; j-- {
			in := &blk.Instrs[j]
			if in.Op == ir.OpMove && in.Dst == in.A {
				dead[j] = true
				continue // a self-move neither defines nor uses anew
			}
			if pure(in) && in.Dst != ir.NoReg && !live.Has(int(in.Dst)) {
				dead[j] = true
				continue // skip StepBack: its uses stay dead
			}
			StepBack(live, in)
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

// coalescePass folds the pattern
//
//	t = <pure-or-call producer> ; v = move t   (t dead after the move)
//
// into a single instruction writing v directly, when t and v share a
// machine register class. One fold per block per round keeps the liveness
// information it relies on valid. Returns the number of moves removed.
func coalescePass(c *CFG) int {
	f := c.F
	_, liveOut := Liveness(c)
	removed := 0
	for b, blk := range f.Blocks {
		after := LiveAfter(c, liveOut, b)
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
				continue // t still read somewhere after the move
			}
			if regClassOf(f, prod.Dst) != regClassOf(f, mv.Dst) {
				continue
			}
			// Operands are read before the destination is written, so
			// rewriting the producer's Dst is safe even if it reads mv.Dst.
			prod.Dst = mv.Dst
			blk.Instrs = append(blk.Instrs[:j+1], blk.Instrs[j+2:]...)
			removed++
			break
		}
	}
	return removed
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
