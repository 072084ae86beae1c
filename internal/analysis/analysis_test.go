package analysis

// Unit tests for the dataflow framework on hand-built IR: BitSets, CFG
// construction, witness paths, liveness, must-defined,
// reaching definitions, DCE, and pool-bound tightening.

import (
	"reflect"
	"testing"

	"repro/internal/ir"
	"repro/internal/lang"
)

// --- IR construction helpers ----------------------------------------------

func instr(op ir.Op) ir.Instr {
	return ir.Instr{Op: op, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg}
}

func konst(dst ir.Reg, v int64) ir.Instr {
	in := instr(ir.OpConst)
	in.Dst, in.Imm, in.NumKind = dst, v, ir.KInt
	return in
}

func mov(dst, src ir.Reg) ir.Instr {
	in := instr(ir.OpMove)
	in.Dst, in.A = dst, src
	return in
}

func add(dst, a, b ir.Reg) ir.Instr {
	in := instr(ir.OpBin)
	in.Sub, in.NumKind = ir.BinAdd, ir.KInt
	in.Dst, in.A, in.B = dst, a, b
	return in
}

func jmp(blk int) ir.Instr {
	in := instr(ir.OpJump)
	in.Blk = int32(blk)
	return in
}

func br(cond ir.Reg, t, f int) ir.Instr {
	in := instr(ir.OpBranch)
	in.A, in.Blk, in.Blk2 = cond, int32(t), int32(f)
	return in
}

func ret(a ir.Reg) ir.Instr {
	in := instr(ir.OpRet)
	in.A = a
	return in
}

func mkFunc(numRegs int, blocks ...[]ir.Instr) *ir.Func {
	f := &ir.Func{Name: "T.test", NumRegs: numRegs}
	for i := 0; i < numRegs; i++ {
		f.RegTypes = append(f.RegTypes, lang.IntType)
	}
	for i, ins := range blocks {
		f.Blocks = append(f.Blocks, &ir.Block{ID: i, Instrs: ins})
	}
	return f
}

// diamond builds b0 -> {b1, b2} -> b3, with r0 defined in b0 and r1
// defined only on the b1 arm.
func diamond() *ir.Func {
	return mkFunc(3,
		[]ir.Instr{konst(0, 1), br(0, 1, 2)},
		[]ir.Instr{konst(1, 2), jmp(3)},
		[]ir.Instr{jmp(3)},
		[]ir.Instr{ret(0)},
	)
}

// --- tests ----------------------------------------------------------------

func TestBitSet(t *testing.T) {
	s := NewBitSet(130)
	s.Set(0)
	s.Set(64)
	s.Set(129)
	if !s.Has(0) || !s.Has(64) || !s.Has(129) || s.Has(1) {
		t.Fatal("set/has broken")
	}
	if s.Count() != 3 {
		t.Fatalf("count = %d, want 3", s.Count())
	}
	s.Clear(64)
	if s.Has(64) || s.Count() != 2 {
		t.Fatal("clear broken")
	}
	u := NewBitSet(130)
	u.Set(5)
	if !u.UnionWith(s) || !u.Has(0) || !u.Has(5) || !u.Has(129) {
		t.Fatal("union broken")
	}
	if u.UnionWith(s) {
		t.Fatal("second union reported change")
	}
	v := s.Copy()
	if !v.Equal(s) {
		t.Fatal("copy not equal")
	}
	v.IntersectWith(NewBitSet(130))
	if v.Count() != 0 {
		t.Fatal("intersect with empty not empty")
	}
	w := NewBitSet(70)
	w.Fill(70)
	if w.Count() != 70 || w.Has(70) {
		t.Fatalf("fill: count=%d has(70)=%v", w.Count(), w.Has(70))
	}
}

func TestCFGDiamond(t *testing.T) {
	c := BuildCFG(diamond())
	if got := c.Succs(0); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("succs(b0) = %v", got)
	}
	if got := c.Preds(3); len(got) != 2 {
		t.Fatalf("preds(b3) = %v", got)
	}
	if len(c.RPO) != 4 || c.RPO[0] != 0 || c.RPO[len(c.RPO)-1] != 3 {
		t.Fatalf("RPO = %v", c.RPO)
	}
	for b := 0; b < 4; b++ {
		if !c.Reachable(b) {
			t.Fatalf("b%d unreachable", b)
		}
	}
}

func TestUnreachableBlock(t *testing.T) {
	// b1 is orphaned: entry returns immediately.
	f := mkFunc(1,
		[]ir.Instr{konst(0, 1), ret(0)},
		[]ir.Instr{jmp(0)},
	)
	c := BuildCFG(f)
	if c.Reachable(1) {
		t.Fatal("orphan block reported reachable")
	}
}

func TestWitnessPath(t *testing.T) {
	c := BuildCFG(diamond())
	p := c.WitnessPath(0, 3)
	if len(p) != 3 || p[0] != 0 || p[2] != 3 {
		t.Fatalf("path = %v, want 0->{1|2}->3", p)
	}
	if got := c.WitnessPath(2, 2); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("self path = %v", got)
	}
	if got := c.WitnessPath(3, 0); got != nil {
		t.Fatalf("impossible path = %v, want nil", got)
	}
}

func TestLiveness(t *testing.T) {
	// b0: r0, r1 defined; b1 reads only r0 — r1 is dead across the edge.
	f := mkFunc(2,
		[]ir.Instr{konst(0, 1), konst(1, 2), jmp(1)},
		[]ir.Instr{ret(0)},
	)
	c := BuildCFG(f)
	_, liveOut := liveness(c, &scratch{})
	if b0 := liveOut.row(0); !b0.Has(0) || b0.Has(1) {
		t.Fatalf("liveOut(b0): r0=%v r1=%v, want true,false", b0.Has(0), b0.Has(1))
	}
	if after := liveAfterAll(c, liveOut, &scratch{}); !after.at(0, 0).Has(0) {
		t.Fatal("r0 must be live after its def")
	}
}

func TestMustDefined(t *testing.T) {
	f := diamond() // r1 defined only on the b1 arm
	c := BuildCFG(f)
	in := MustDefined(c)
	if !in[3].Has(0) {
		t.Fatal("r0 must-defined at b3")
	}
	if in[3].Has(1) {
		t.Fatal("r1 wrongly must-defined at b3 (only defined on one arm)")
	}
}

func TestReachingDefs(t *testing.T) {
	// Site in b0 reaches b1 (no kill) but not past a redefinition in b2.
	f := mkFunc(2,
		[]ir.Instr{konst(0, 1), jmp(1)},
		[]ir.Instr{konst(0, 2), jmp(2)}, // kills the b0 def of r0
		[]ir.Instr{ret(0)},
	)
	c := BuildCFG(f)
	sites := []DefSite{{Block: 0, Index: 0}}
	in := ReachingDefs(c, sites)
	if !in[1].Has(0) {
		t.Fatal("site should reach b1")
	}
	if in[2].Has(0) {
		t.Fatal("site should be killed by the b1 redefinition before b2")
	}
}

func TestDCERemovesDeadPure(t *testing.T) {
	// r1 is a dead const; r0 flows to the return. The dead def must go,
	// the live one must stay.
	f := mkFunc(2,
		[]ir.Instr{konst(0, 7), konst(1, 8), ret(0)},
	)
	if n, _ := eliminateFunc(f, &scratch{}, &scratch{}); n != 1 {
		t.Fatalf("removed %d, want 1", n)
	}
	if got := f.Blocks[0].Instrs; len(got) != 2 || got[0].Op != ir.OpConst || got[0].Dst != 0 {
		t.Fatalf("block after DCE: %v", got)
	}
}

func TestDCEKeepsTrappingAndImpure(t *testing.T) {
	// A dead integer division must survive (traps on zero divisor must be
	// preserved so P and P' fault identically).
	div := instr(ir.OpBin)
	div.Sub, div.NumKind = ir.BinDiv, ir.KInt
	div.Dst, div.A, div.B = 2, 0, 1
	f := mkFunc(3,
		[]ir.Instr{konst(0, 7), konst(1, 0), div, ret(ir.NoReg)},
	)
	if n, _ := eliminateFunc(f, &scratch{}, &scratch{}); n != 0 {
		t.Fatalf("removed %d, want 0 (int div may trap)", n)
	}
}

func TestDCECoalescesMoves(t *testing.T) {
	// t = a + b; v = move t  ==>  v = a + b
	f := mkFunc(4,
		[]ir.Instr{konst(0, 1), konst(1, 2), add(2, 0, 1), mov(3, 2), ret(3)},
	)
	if n, _ := eliminateFunc(f, &scratch{}, &scratch{}); n != 1 {
		t.Fatalf("removed %d, want 1", n)
	}
	got := f.Blocks[0].Instrs
	if len(got) != 4 || got[2].Op != ir.OpBin || got[2].Dst != 3 {
		t.Fatalf("block after coalesce: %v", got)
	}
}

func TestDCERemovesSelfMove(t *testing.T) {
	f := mkFunc(1,
		[]ir.Instr{konst(0, 1), mov(0, 0), ret(0)},
	)
	if n, _ := eliminateFunc(f, &scratch{}, &scratch{}); n != 1 {
		t.Fatalf("removed %d, want 1", n)
	}
}

func TestSweepFoldsEveryPairInABlock(t *testing.T) {
	// Two foldable pairs in one block: one sweep folds both.
	//   r2 = r0 + r1; r3 = move r2; r4 = r3 + r3; r5 = move r4; ret r5
	f := mkFunc(6,
		[]ir.Instr{konst(0, 1), konst(1, 2), add(2, 0, 1), mov(3, 2), add(4, 3, 3), mov(5, 4), ret(5)},
	)
	if n, _ := sweep(BuildCFG(f), &scratch{}); n != 2 {
		t.Fatalf("one sweep removed %d, want 2", n)
	}
	got := f.Blocks[0].Instrs
	if len(got) != 5 || got[2].Dst != 3 || got[3].Dst != 5 || got[3].A != 3 {
		t.Fatalf("block after sweep: %v", got)
	}
}

func TestSweepCollapsesAMoveChain(t *testing.T) {
	// r2 = r0 + r1; r3 = move r2; r4 = move r3  ==>  r4 = r0 + r1
	f := mkFunc(5,
		[]ir.Instr{konst(0, 1), konst(1, 2), add(2, 0, 1), mov(3, 2), mov(4, 3), ret(4)},
	)
	if n, _ := sweep(BuildCFG(f), &scratch{}); n != 2 {
		t.Fatalf("one sweep removed %d, want 2", n)
	}
	got := f.Blocks[0].Instrs
	if len(got) != 4 || got[2].Op != ir.OpBin || got[2].Dst != 4 {
		t.Fatalf("block after sweep: %v", got)
	}
}

func TestSweepNeedsASecondRoundAcrossBlocks(t *testing.T) {
	// b0 defines r2 for b1's dead move only. The first sweep's liveness
	// still has r2 live out of b0, so only the move goes; the next sweep
	// sees r2 dead and drops its definition. This is why the rounds stay.
	f := mkFunc(4,
		[]ir.Instr{konst(0, 1), add(2, 0, 0), jmp(1)},
		[]ir.Instr{mov(3, 2), ret(0)},
	)
	c := BuildCFG(f)
	for round, want := range []int{1, 1, 0} {
		if n, _ := sweep(c, &scratch{}); n != want {
			t.Fatalf("sweep %d removed %d, want %d", round+1, n, want)
		}
	}
	if got := f.Blocks[0].Instrs; len(got) != 2 || got[0].Dst != 0 {
		t.Fatalf("b0 after DCE: %v", got)
	}
	if got := f.Blocks[1].Instrs; len(got) != 1 || got[0].Op != ir.OpRet {
		t.Fatalf("b1 after DCE: %v", got)
	}
}

func TestTightenBounds(t *testing.T) {
	fc := &lang.Class{Name: "PtFacade"}
	get := instr(ir.OpPoolGet)
	get.Dst, get.Cls, get.Imm = 0, fc, 0 // only slot 0 ever fetched
	f := mkFunc(1, []ir.Instr{get, ret(ir.NoReg)})
	f.RegTypes[0] = lang.ClassType("PtFacade")
	p := &ir.Program{
		FuncList: []*ir.Func{f},
		Bounds:   map[string]int{"Pt": 3, "Other": 2},
	}
	got := TightenBounds(p)
	if got["Pt"] != 1 {
		t.Fatalf("Pt bound = %d, want 1 (only slot 0 used)", got["Pt"])
	}
	if got["Other"] != 1 {
		t.Fatalf("Other bound = %d, want floor of 1 (no fetches)", got["Other"])
	}
}
