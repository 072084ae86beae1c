package ir

// The disassembler must round-trip every opcode: each Op prints its
// mnemonic, never the op(N) fallback, and printing is robust against the
// nil Cls/Field/Type slots that hand-built or partially-linked instructions
// can carry.

import (
	"strings"
	"testing"

	"repro/internal/lang"
)

func TestEveryOpcodeHasAName(t *testing.T) {
	for op := OpNop; op <= OpPMonExit; op++ {
		if s := op.String(); s == "" || strings.HasPrefix(s, "op(") {
			t.Errorf("opcode %d has no mnemonic (got %q)", int(op), s)
		}
	}
}

func TestInstrStringCoversEveryOpcode(t *testing.T) {
	cls := &lang.Class{Name: "C"}
	fld := &lang.Field{Name: "f", Owner: cls}
	m := &lang.Method{Name: "m", Owner: cls}
	typ := lang.IntType

	mk := func(op Op) Instr {
		return Instr{Op: op, Dst: NoReg, A: NoReg, B: NoReg, C: NoReg}
	}
	cases := make(map[Op]Instr)
	put := func(in Instr) { cases[in.Op] = in }

	c0 := mk(OpConst)
	c0.Dst, c0.Imm, c0.NumKind, c0.Type = 0, 42, KInt, typ
	put(c0)
	cd := mk(OpConst) // double constants print the value in Imm's bits
	cd.Dst, cd.NumKind, cd.Type = 0, KDouble, lang.DoubleType
	cd.SetFloat(2.5)
	if got, want := cd.String(), "r0 = const 2.5"; got != want {
		t.Errorf("double constant prints %q, want %q", got, want)
	}

	sl := mk(OpStrLit)
	sl.Dst, sl.Imm = 1, 0
	put(sl)
	mv := mk(OpMove)
	mv.Dst, mv.A = 1, 0
	put(mv)
	bi := mk(OpBin)
	bi.Sub, bi.NumKind, bi.Dst, bi.A, bi.B = BinAdd, KInt, 2, 0, 1
	put(bi)
	un := mk(OpUn)
	un.Sub, un.Dst, un.A = UnNeg, 1, 0
	put(un)
	cv := mk(OpConv)
	cv.NumKind, cv.NumKind2, cv.Dst, cv.A = KInt, KDouble, 1, 0
	put(cv)

	for _, op := range []Op{OpNew, OpPNew} {
		in := mk(op)
		in.Dst, in.Cls = 1, cls
		put(in)
	}
	for _, op := range []Op{OpNewArr, OpPNewArr} {
		in := mk(op)
		in.Dst, in.A, in.Type = 1, 0, typ
		put(in)
	}
	for _, op := range []Op{OpLoad, OpPLoad} {
		in := mk(op)
		in.Dst, in.A, in.Field = 1, 0, fld
		put(in)
	}
	for _, op := range []Op{OpStore, OpPStore} {
		in := mk(op)
		in.A, in.B, in.Field = 0, 1, fld
		put(in)
	}
	ls := mk(OpLoadStatic)
	ls.Dst, ls.Field = 1, fld
	put(ls)
	ss := mk(OpStoreStatic)
	ss.A, ss.Field = 0, fld
	put(ss)
	for _, op := range []Op{OpALoad, OpPALoad} {
		in := mk(op)
		in.Dst, in.A, in.B, in.Type = 2, 0, 1, typ
		put(in)
	}
	for _, op := range []Op{OpAStore, OpPAStore} {
		in := mk(op)
		in.A, in.B, in.C, in.Type = 0, 1, 2, typ
		put(in)
	}
	for _, op := range []Op{OpALen, OpPALen} {
		in := mk(op)
		in.Dst, in.A = 1, 0
		put(in)
	}
	io := mk(OpInstOf)
	io.Dst, io.A, io.Type = 1, 0, lang.ClassType("C")
	put(io)
	ca := mk(OpCast)
	ca.Dst, ca.A, ca.Type = 1, 0, lang.ClassType("C")
	put(ca)
	pio := mk(OpPInstOf)
	pio.Dst, pio.A, pio.Cls = 1, 0, cls
	put(pio)
	pca := mk(OpPCast)
	pca.Dst, pca.A, pca.Cls = 1, 0, cls
	put(pca)

	call := mk(OpCall)
	call.Dst, call.A, call.M, call.Args = 2, 0, m, []Reg{0, 1}
	put(call)
	cs := mk(OpCallStatic)
	cs.Dst, cs.M, cs.Args = 2, m, []Reg{0, 1}
	put(cs)
	rt := mk(OpRet)
	rt.A = 0
	put(rt)
	jp := mk(OpJump)
	jp.Blk = 1
	put(jp)
	brn := mk(OpBranch)
	brn.A, brn.Blk, brn.Blk2 = 0, 1, 2
	put(brn)
	intr := mk(OpIntr)
	intr.Dst, intr.Sym, intr.Args = 1, "println", []Reg{0}
	put(intr)
	nc := mk(OpNullCheck)
	nc.A, nc.Sym = 0, "virtual call f"
	put(nc)

	for _, op := range []Op{OpMonEnter, OpMonExit, OpPMonEnter, OpPMonExit} {
		in := mk(op)
		in.A = 0
		put(in)
	}
	rs := mk(OpResolve)
	rs.Dst, rs.A = 1, 0
	put(rs)
	pg := mk(OpPoolGet)
	pg.Dst, pg.Cls, pg.Imm = 1, cls, 0
	put(pg)
	rp := mk(OpRecvPool)
	rp.Dst, rp.A, rp.Cls = 1, 0, cls
	put(rp)
	put(mk(OpNop))

	for op := OpNop; op <= OpPMonExit; op++ {
		in, ok := cases[op]
		if !ok {
			t.Errorf("no test instance for opcode %v", op)
			continue
		}
		s := in.String()
		if s == "" {
			t.Errorf("%v: empty String()", op)
			continue
		}
		if !strings.Contains(s, op.String()) {
			t.Errorf("%v: String() %q does not contain the mnemonic", op, s)
		}
	}
}

func TestInstrStringNilSafety(t *testing.T) {
	// Partially-built instructions (as seen mid-lowering or in tests) must
	// never panic the printer.
	for op := OpNop; op <= OpPMonExit; op++ {
		in := Instr{Op: op, Dst: NoReg, A: NoReg, B: NoReg, C: NoReg}
		_ = in.String() // must not panic with nil Cls/Field/Type/M
	}
}
