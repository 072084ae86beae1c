package ir

import (
	"math"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/lang"
)

func validFunc() *Func {
	f := &Func{Name: "T.m", NumRegs: 2, RegTypes: []*lang.Type{lang.IntType, lang.IntType}}
	f.Blocks = []*Block{
		{ID: 0, Instrs: []Instr{
			{Op: OpConst, Dst: 0, A: NoReg, B: NoReg, C: NoReg, Imm: 5, NumKind: KInt, Type: lang.IntType},
			{Op: OpJump, Dst: NoReg, A: NoReg, B: NoReg, C: NoReg, Blk: 1},
		}},
		{ID: 1, Instrs: []Instr{
			{Op: OpRet, Dst: NoReg, A: 0, B: NoReg, C: NoReg},
		}},
	}
	return f
}

func TestVerifyAcceptsValid(t *testing.T) {
	if err := validFunc().Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejections(t *testing.T) {
	cases := map[string]func(*Func){
		"no blocks":         func(f *Func) { f.Blocks = nil },
		"empty block":       func(f *Func) { f.Blocks[1].Instrs = nil },
		"bad block id":      func(f *Func) { f.Blocks[1].ID = 7 },
		"no terminator":     func(f *Func) { f.Blocks[1].Instrs[0].Op = OpConst },
		"mid terminator":    func(f *Func) { f.Blocks[0].Instrs[0] = Instr{Op: OpRet, Dst: NoReg, A: NoReg, B: NoReg, C: NoReg} },
		"reg out of range":  func(f *Func) { f.Blocks[0].Instrs[0].Dst = 9 },
		"bad jump target":   func(f *Func) { f.Blocks[0].Instrs[1].Blk = 3 },
		"regtypes mismatch": func(f *Func) { f.RegTypes = f.RegTypes[:1] },
	}
	for name, mutate := range cases {
		f := validFunc()
		mutate(f)
		if err := f.Verify(); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

func TestProgramHelpers(t *testing.T) {
	p := &Program{}
	f := validFunc()
	p.AddFunc(f)
	if p.Funcs["T.m"] != f || len(p.FuncList) != 1 {
		t.Fatal("AddFunc")
	}
	if p.NumInstrs() != 3 {
		t.Fatalf("NumInstrs %d", p.NumInstrs())
	}
	i1 := p.Intern("x")
	i2 := p.Intern("y")
	i3 := p.Intern("x")
	if i1 != i3 || i1 == i2 {
		t.Fatal("interning")
	}
	if FuncKey("A", "m") != "A.m" || CtorKey("A") != "A.<init>" {
		t.Fatal("keys")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddFunc must panic")
		}
	}()
	p.AddFunc(validFunc())
}

func TestInstrsInClasses(t *testing.T) {
	p := &Program{}
	f := validFunc()
	f.Class = &lang.Class{Name: "T"}
	p.AddFunc(f)
	g := validFunc()
	g.Name = "U.m"
	g.Class = &lang.Class{Name: "U"}
	p.AddFunc(g)
	if p.InstrsInClasses([]string{"T"}) != 3 {
		t.Fatal("filter by class")
	}
	if p.InstrsInClasses([]string{"T", "U"}) != 6 {
		t.Fatal("filter by both")
	}
}

// TestInstrSize pins the compiler's unit of work: every instruction a
// compile keeps is one Instr. The VM no longer executes it (it runs the
// 32-byte Slot, pinned in internal/vm). 136 bytes is the struct with int32
// block targets, a double constant in Imm's bits and a lang.Pos of two
// int32s, laid out without padding.
func TestInstrSize(t *testing.T) {
	if n := unsafe.Sizeof(Instr{}); n > 136 {
		t.Fatalf("unsafe.Sizeof(Instr{}) = %d, want <= 136", n)
	}
}

func TestKindOf(t *testing.T) {
	cases := map[*lang.Type]NumKind{
		lang.BoolType:              KBool,
		lang.ByteType:              KByte,
		lang.IntType:               KInt,
		lang.LongType:              KLong,
		lang.DoubleType:            KDouble,
		lang.ClassType("X"):        KRef,
		lang.ArrayOf(lang.IntType): KRef,
	}
	for ty, want := range cases {
		if KindOf(ty) != want {
			t.Fatalf("KindOf(%s) = %v", ty, KindOf(ty))
		}
	}
}

// TestInstrPrinterCoversAllOps renders one instruction of every opcode;
// the printer must produce non-empty, opcode-tagged text for each.
func TestInstrPrinterCoversAllOps(t *testing.T) {
	cls := &lang.Class{Name: "C"}
	fld := &lang.Field{Name: "f", Type: lang.IntType, Owner: cls}
	sfld := &lang.Field{Name: "s", Type: lang.IntType, Owner: cls, Static: true}
	m := &lang.Method{Name: "m", Owner: cls, Ret: lang.IntType}
	instrs := []Instr{
		{Op: OpConst, Dst: 0, NumKind: KInt, Imm: 5, Type: lang.IntType},
		{Op: OpConst, Dst: 0, NumKind: KDouble, Imm: int64(math.Float64bits(1.5)), Type: lang.DoubleType},
		{Op: OpStrLit, Dst: 0, Imm: 2},
		{Op: OpMove, Dst: 0, A: 1},
		{Op: OpBin, Dst: 0, A: 1, B: 2, Sub: BinAdd, NumKind: KInt},
		{Op: OpUn, Dst: 0, A: 1, Sub: UnNeg, NumKind: KInt},
		{Op: OpConv, Dst: 0, A: 1, NumKind: KInt, NumKind2: KDouble},
		{Op: OpNew, Dst: 0, Cls: cls},
		{Op: OpNewArr, Dst: 0, A: 1, Type: lang.IntType},
		{Op: OpLoad, Dst: 0, A: 1, Field: fld},
		{Op: OpStore, A: 0, B: 1, Field: fld},
		{Op: OpLoadStatic, Dst: 0, Field: sfld},
		{Op: OpStoreStatic, A: 0, Field: sfld},
		{Op: OpALoad, Dst: 0, A: 1, B: 2, Type: lang.IntType},
		{Op: OpAStore, A: 0, B: 1, C: 2, Type: lang.IntType},
		{Op: OpALen, Dst: 0, A: 1},
		{Op: OpInstOf, Dst: 0, A: 1, Type: lang.ClassType("C")},
		{Op: OpCast, Dst: 0, A: 1, Type: lang.ClassType("C")},
		{Op: OpCall, Dst: 0, A: 1, M: m, Args: []Reg{2, 3}},
		{Op: OpCallStatic, Dst: 0, M: m, Args: []Reg{2}},
		{Op: OpRet, A: 0},
		{Op: OpRet, A: NoReg},
		{Op: OpJump, Blk: 1},
		{Op: OpBranch, A: 0, Blk: 1, Blk2: 2},
		{Op: OpIntr, Dst: 0, Sym: "rand", Args: []Reg{1}},
		{Op: OpMonEnter, A: 0},
		{Op: OpMonExit, A: 0},
		{Op: OpPNew, Dst: 0, Cls: cls, Imm: 16},
		{Op: OpPNewArr, Dst: 0, A: 1, Type: lang.IntType},
		{Op: OpPLoad, Dst: 0, A: 1, Field: fld},
		{Op: OpPStore, A: 0, B: 1, Field: fld},
		{Op: OpPALoad, Dst: 0, A: 1, B: 2, Type: lang.IntType},
		{Op: OpPAStore, A: 0, B: 1, C: 2, Type: lang.IntType},
		{Op: OpPALen, Dst: 0, A: 1},
		{Op: OpPInstOf, Dst: 0, A: 1, Cls: cls},
		{Op: OpPInstOf, Dst: 0, A: 1, Type: lang.ArrayOf(lang.IntType)},
		{Op: OpPCast, Dst: 0, A: 1, Cls: cls},
		{Op: OpResolve, Dst: 0, A: 1},
		{Op: OpPoolGet, Dst: 0, Cls: cls, Imm: 1},
		{Op: OpRecvPool, Dst: 0, A: 1, Cls: cls},
		{Op: OpPMonEnter, A: 0},
		{Op: OpPMonExit, A: 0},
	}
	for i := range instrs {
		// Normalize unset register fields the builders would set.
		s := instrs[i].String()
		if s == "" {
			t.Fatalf("op %s printed empty", instrs[i].Op)
		}
		if !strings.Contains(s, instrs[i].Op.String()) {
			t.Fatalf("op %s missing from %q", instrs[i].Op, s)
		}
	}
}

func TestOpAndSubStrings(t *testing.T) {
	if OpPNew.String() != "pnew" || OpResolve.String() != "resolve" || OpRecvPool.String() != "recvpool" {
		t.Fatal("op names")
	}
	if BinAdd.String() != "+" || UnNot.String() != "not" {
		t.Fatal("sub names")
	}
	if !strings.Contains(Op(200).String(), "op(") {
		t.Fatal("unknown op formatting")
	}
}

func TestFacadeNameMapping(t *testing.T) {
	for _, c := range []struct{ orig, name string }{{"Object", "Facade"}, {"Tuple", "TupleFacade"}} {
		if got := FacadeName(c.orig); got != c.name {
			t.Errorf("FacadeName(%q) = %q, want %q", c.orig, got, c.name)
		}
		if got, ok := FacadeOrig(c.name); !ok || got != c.orig {
			t.Errorf("FacadeOrig(%q) = %q, %v, want %q, true", c.name, got, ok, c.orig)
		}
	}
	for _, name := range []string{"Tuple", "FacadeBridge", ""} {
		if orig, ok := FacadeOrig(name); ok {
			t.Errorf("FacadeOrig(%q) = %q, true; want not a facade name", name, orig)
		}
	}
}
