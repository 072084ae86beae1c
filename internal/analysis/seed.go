package analysis

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/lang"
)

// SeedViolation mutates p in place to contain one known facade-safety
// violation, for golden-diagnostics tests and `facadec vet -seed`. Some
// violation classes (use-before-def, pool clobbering) cannot be written in
// conforming FJ source — the type checker and the transform's closure
// computation rule them out — so they are injected at the IR level, the
// same place a compiler bug would introduce them.
//
// Kinds: "use-before-def", "pool-clobber".
func SeedViolation(p *ir.Program, kind string) error {
	p.TakeFacts() // the facts DCE handed forward describe the unseeded code
	switch kind {
	case "use-before-def":
		return seedUseBeforeDef(p)
	case "pool-clobber":
		return seedPoolClobber(p)
	}
	return fmt.Errorf("analysis: unknown seed kind %q (want use-before-def or pool-clobber)", kind)
}

// seedTarget picks a deterministic non-synthetic function to corrupt,
// preferring the program entry point.
func seedTarget(p *ir.Program, want func(*ir.Func) bool) *ir.Func {
	for _, name := range []string{"MainFacade.main", "Main.main"} {
		if f := p.Funcs[name]; f != nil && want(f) {
			return f
		}
	}
	for _, f := range p.FuncList {
		if want(f) {
			return f
		}
	}
	return nil
}

func seedUseBeforeDef(p *ir.Program) error {
	f := seedTarget(p, func(f *ir.Func) bool { return len(f.Blocks) > 0 && len(f.Blocks[0].Instrs) > 0 })
	if f == nil {
		return fmt.Errorf("analysis: no function to seed")
	}
	src := ir.Reg(f.NumRegs)
	dst := ir.Reg(f.NumRegs + 1)
	f.NumRegs += 2
	f.RegTypes = append(f.RegTypes, lang.IntType, lang.IntType)
	blk := f.Blocks[0]
	in := ir.Instr{
		Op: ir.OpBin, Sub: ir.BinAdd, NumKind: ir.KInt,
		Dst: dst, A: src, B: src, C: ir.NoReg,
		Pos: firstPos(f),
	}
	blk.Instrs = append([]ir.Instr{in}, blk.Instrs...)
	return nil
}

func seedPoolClobber(p *ir.Program) error {
	f := seedTarget(p, func(f *ir.Func) bool { return findPoolGet(f) != nil })
	if f == nil {
		return fmt.Errorf("analysis: no OpPoolGet to seed (program not transformed?)")
	}
	loc := findPoolGet(f)
	blk := f.Blocks[loc.Block]
	orig := blk.Instrs[loc.Index]
	held := ir.Reg(f.NumRegs)
	sink := ir.Reg(f.NumRegs + 1)
	f.NumRegs += 2
	ft := lang.ClassType(orig.Cls.Name)
	f.RegTypes = append(f.RegTypes, ft, ft)
	// Duplicate the fetch just before the original and keep its result live
	// past it with a use before the terminator: the refetch at the original
	// site now clobbers the held facade.
	dup := orig
	dup.Dst = held
	if dup.Pos.Line == 0 {
		// Transform-synthesized PoolGets carry no source position; borrow the
		// function's first so the diagnostic still points into the file.
		dup.Pos = firstPos(f)
	}
	use := ir.Instr{Op: ir.OpMove, Dst: sink, A: held, B: ir.NoReg, C: ir.NoReg, Pos: dup.Pos}
	instrs := make([]ir.Instr, 0, len(blk.Instrs)+2)
	instrs = append(instrs, blk.Instrs[:loc.Index]...)
	instrs = append(instrs, dup)
	instrs = append(instrs, blk.Instrs[loc.Index:len(blk.Instrs)-1]...)
	instrs = append(instrs, use, blk.Instrs[len(blk.Instrs)-1])
	blk.Instrs = instrs
	return nil
}

func findPoolGet(f *ir.Func) *DefSite {
	for b, blk := range f.Blocks {
		for j := range blk.Instrs {
			if blk.Instrs[j].Op == ir.OpPoolGet {
				return &DefSite{Block: b, Index: j}
			}
		}
	}
	return nil
}

func firstPos(f *ir.Func) lang.Pos {
	for _, b := range f.Blocks {
		for j := range b.Instrs {
			if b.Instrs[j].Pos.Line > 0 {
				return b.Instrs[j].Pos
			}
		}
	}
	return lang.Pos{}
}
