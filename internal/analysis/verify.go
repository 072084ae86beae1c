package analysis

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/lang"
)

// The verifier checks every function against the IR's typing discipline:
// register kinds vs. instruction operands, terminator placement, field
// offsets inside the owner's record body, static indices in range, and
// page-half opcodes appearing only in transformed facade-context code.
//
// Register kinds are compared by machine class (int-like, long, double,
// ref). Two deliberate leniencies mirror how the compiler emits code:
//
//   - OpMove is kind-unchecked: it is the IR's official retype/blit
//     instruction (the transform and the bridge use it to move raw page
//     references and record payloads between long- and ref-typed
//     registers).
//   - Inside facade-context functions of a transformed program (the Facade
//     base class, FacadeBridge, and every data-class facade twin) the long
//     and ref classes are merged: data-typed registers are retyped to long
//     by the transform, but call signatures and field types still name the
//     original reference types.

// kclass is a machine register class.
type kclass uint8

const (
	cAny kclass = iota // untyped register (no RegTypes entry)
	cInt               // int, byte, bool
	cLong
	cDouble
	cRef
)

func (k kclass) String() string {
	switch k {
	case cInt:
		return "int"
	case cLong:
		return "long"
	case cDouble:
		return "double"
	case cRef:
		return "ref"
	}
	return "any"
}

func classOfKind(k ir.NumKind) kclass {
	switch k {
	case ir.KInt, ir.KByte, ir.KBool:
		return cInt
	case ir.KLong:
		return cLong
	case ir.KDouble:
		return cDouble
	}
	return cRef
}

func classOfType(t *lang.Type) kclass {
	if t == nil {
		return cAny
	}
	return classOfKind(ir.KindOf(t))
}

// FacadeClasses returns the set of class names whose methods run in
// facade context in a transformed program: the Facade base class, the
// FacadeBridge conversion owner, and one facade twin per data class.
func FacadeClasses(p *ir.Program) map[string]bool {
	set := map[string]bool{"Facade": true, "FacadeBridge": true}
	for name := range p.DataClasses {
		set[ir.FacadeName(name)] = true
	}
	return set
}

type verifier struct {
	p      *ir.Program
	f      *ir.Func
	facade map[string]bool
	// merged is true when long and ref register classes are interchangeable
	// (facade-context functions of a transformed program).
	merged bool
}

// VerifyProgram type-checks every function. It returns the first
// violation, or nil when the whole program verifies.
func VerifyProgram(p *ir.Program) error {
	if err := p.Verify(); err != nil {
		return err
	}
	v := &verifier{p: p, facade: FacadeClasses(p)}
	for _, f := range p.FuncList {
		if err := v.verifyFunc(f); err != nil {
			return err
		}
	}
	return nil
}

// verifyFunc checks f; one verifier visits every function of a program.
func (v *verifier) verifyFunc(f *ir.Func) error {
	v.f = f
	v.merged = v.p.Transformed && f.Class != nil && v.facade[f.Class.Name]
	for _, b := range f.Blocks {
		for j := range b.Instrs {
			if err := v.instr(&b.Instrs[j]); err != nil {
				return fmt.Errorf("%s: b%d#%d: %s: %w", f.Name, b.ID, j, b.Instrs[j].String(), err)
			}
		}
	}
	return nil
}

func (v *verifier) regClass(r ir.Reg) kclass {
	if r == ir.NoReg || int(r) >= len(v.f.RegTypes) {
		return cAny
	}
	return classOfType(v.f.RegTypes[r])
}

func (v *verifier) compat(have, want kclass) bool {
	if have == cAny || want == cAny || have == want {
		return true
	}
	if v.merged && (have == cLong || have == cRef) && (want == cLong || want == cRef) {
		return true
	}
	return false
}

func (v *verifier) want(r ir.Reg, want kclass, what string) error {
	if r == ir.NoReg {
		return fmt.Errorf("%s: missing register", what)
	}
	if have := v.regClass(r); !v.compat(have, want) {
		return fmt.Errorf("%s: r%d is %s, want %s", what, r, have, want)
	}
	return nil
}

func (v *verifier) fieldOK(fl *lang.Field, static bool) error {
	if fl == nil {
		return fmt.Errorf("nil field")
	}
	if fl.Static != static {
		if static {
			return fmt.Errorf("field %s is not static", fl.Name)
		}
		return fmt.Errorf("field %s is static", fl.Name)
	}
	if static {
		if fl.StaticIndex < 0 || fl.StaticIndex >= v.p.H.NumStatics {
			return fmt.Errorf("static index %d out of range [0,%d)", fl.StaticIndex, v.p.H.NumStatics)
		}
		return nil
	}
	if fl.Owner != nil && fl.Owner.BodySize > 0 {
		if fl.Offset < 0 || fl.Offset+fl.Type.FieldSize() > fl.Owner.BodySize {
			return fmt.Errorf("field %s.%s offset %d size %d exceeds body size %d",
				fl.Owner.Name, fl.Name, fl.Offset, fl.Type.FieldSize(), fl.Owner.BodySize)
		}
	}
	return nil
}

// recvOK checks a heap field access receiver: when both the register's
// class and the field's owner resolve, one must be a subclass of the
// other. (The bridge legally loads concrete-class fields off Object-typed
// registers, so the relation is accepted in either direction.)
func (v *verifier) recvOK(r ir.Reg, fl *lang.Field) error {
	if r == ir.NoReg || int(r) >= len(v.f.RegTypes) || fl.Owner == nil {
		return nil
	}
	t := v.f.RegTypes[r]
	if t == nil || t.Kind != lang.TClass {
		return nil
	}
	rc := v.p.H.Class(t.Name)
	if rc == nil {
		return nil
	}
	if !rc.IsSubclassOf(fl.Owner) && !fl.Owner.IsSubclassOf(rc) {
		return fmt.Errorf("receiver class %s unrelated to field owner %s", rc.Name, fl.Owner.Name)
	}
	return nil
}

func isPageOp(op ir.Op) bool { return op >= ir.OpPNew && op <= ir.OpPMonExit }

func (v *verifier) instr(in *ir.Instr) error {
	if isPageOp(in.Op) {
		if !v.p.Transformed {
			return fmt.Errorf("page-half op in untransformed program")
		}
		if v.f.Class == nil || !v.facade[v.f.Class.Name] {
			return fmt.Errorf("page-half op outside facade-context function")
		}
	}
	switch in.Op {
	case ir.OpNop, ir.OpJump:
		return nil
	case ir.OpConst:
		if classOfKind(in.NumKind) == cRef && in.Imm != 0 {
			return fmt.Errorf("ref const must be null (Imm=0), got %d", in.Imm)
		}
		return v.want(in.Dst, classOfKind(in.NumKind), "dst")
	case ir.OpStrLit:
		if in.Imm < 0 || int(in.Imm) >= len(v.p.StringPool) {
			return fmt.Errorf("string pool index %d out of range [0,%d)", in.Imm, len(v.p.StringPool))
		}
		// Lowering leaves NumKind zero (a heap String ref); the transform
		// retags data-path literals KLong (an interned page record).
		want := cRef
		if in.NumKind == ir.KLong {
			want = cLong
		}
		return v.want(in.Dst, want, "dst")
	case ir.OpMove:
		// Kind-unchecked: the IR's retype/blit instruction.
		if in.A == ir.NoReg || in.Dst == ir.NoReg {
			return fmt.Errorf("move needs src and dst")
		}
		return nil
	case ir.OpBin:
		k := classOfKind(in.NumKind)
		if k == cRef && in.Sub != ir.BinEq && in.Sub != ir.BinNe {
			return fmt.Errorf("ref bin only supports == and !=, got %s", in.Sub)
		}
		if k == cDouble {
			switch in.Sub {
			case ir.BinRem, ir.BinAnd, ir.BinOr, ir.BinXor, ir.BinShl, ir.BinShr:
				return fmt.Errorf("double bin does not support %s", in.Sub)
			}
		}
		if err := v.want(in.A, k, "lhs"); err != nil {
			return err
		}
		rk := k
		if in.Sub == ir.BinShl || in.Sub == ir.BinShr {
			rk = cInt // lang.Check: the shift count is an int whatever is shifted
		}
		if err := v.want(in.B, rk, "rhs"); err != nil {
			return err
		}
		dk := k
		switch in.Sub {
		case ir.BinLt, ir.BinLe, ir.BinGt, ir.BinGe, ir.BinEq, ir.BinNe:
			dk = cInt
		}
		return v.want(in.Dst, dk, "dst")
	case ir.OpUn:
		if in.Sub != ir.UnNeg && in.Sub != ir.UnNot {
			return fmt.Errorf("bad unary sub-op %s", in.Sub)
		}
		k := classOfKind(in.NumKind)
		if err := v.want(in.A, k, "src"); err != nil {
			return err
		}
		return v.want(in.Dst, k, "dst")
	case ir.OpConv:
		if err := v.want(in.A, classOfKind(in.NumKind), "src"); err != nil {
			return err
		}
		return v.want(in.Dst, classOfKind(in.NumKind2), "dst")
	case ir.OpNew:
		if in.Cls == nil {
			return fmt.Errorf("new without class")
		}
		return v.want(in.Dst, cRef, "dst")
	case ir.OpNewArr:
		if in.Type == nil {
			return fmt.Errorf("newarr without element type")
		}
		if err := v.want(in.A, cInt, "length"); err != nil {
			return err
		}
		return v.want(in.Dst, cRef, "dst")
	case ir.OpLoad:
		if err := v.fieldOK(in.Field, false); err != nil {
			return err
		}
		if err := v.want(in.A, cRef, "receiver"); err != nil {
			return err
		}
		if err := v.recvOK(in.A, in.Field); err != nil {
			return err
		}
		return v.want(in.Dst, classOfType(in.Field.Type), "dst")
	case ir.OpStore:
		if err := v.fieldOK(in.Field, false); err != nil {
			return err
		}
		if err := v.want(in.A, cRef, "receiver"); err != nil {
			return err
		}
		if err := v.recvOK(in.A, in.Field); err != nil {
			return err
		}
		return v.want(in.B, classOfType(in.Field.Type), "value")
	case ir.OpLoadStatic:
		if err := v.fieldOK(in.Field, true); err != nil {
			return err
		}
		return v.want(in.Dst, classOfType(in.Field.Type), "dst")
	case ir.OpStoreStatic:
		if err := v.fieldOK(in.Field, true); err != nil {
			return err
		}
		return v.want(in.A, classOfType(in.Field.Type), "value")
	case ir.OpALoad:
		if in.Type == nil {
			return fmt.Errorf("aload without element type")
		}
		if err := v.want(in.A, cRef, "array"); err != nil {
			return err
		}
		if err := v.want(in.B, cInt, "index"); err != nil {
			return err
		}
		return v.want(in.Dst, classOfType(in.Type), "dst")
	case ir.OpAStore:
		if in.Type == nil {
			return fmt.Errorf("astore without element type")
		}
		if err := v.want(in.A, cRef, "array"); err != nil {
			return err
		}
		if err := v.want(in.B, cInt, "index"); err != nil {
			return err
		}
		return v.want(in.C, classOfType(in.Type), "value")
	case ir.OpALen:
		if err := v.want(in.A, cRef, "array"); err != nil {
			return err
		}
		return v.want(in.Dst, cInt, "dst")
	case ir.OpInstOf:
		if in.Type == nil {
			return fmt.Errorf("instof without type")
		}
		if err := v.want(in.A, cRef, "src"); err != nil {
			return err
		}
		return v.want(in.Dst, cInt, "dst")
	case ir.OpCast:
		if in.Type == nil {
			return fmt.Errorf("cast without type")
		}
		if err := v.want(in.A, cRef, "src"); err != nil {
			return err
		}
		return v.want(in.Dst, cRef, "dst")
	case ir.OpCall:
		if in.M == nil {
			return fmt.Errorf("call without method")
		}
		if in.A == ir.NoReg {
			return fmt.Errorf("virtual call without receiver")
		}
		if err := v.want(in.A, cRef, "receiver"); err != nil {
			return err
		}
		return v.callArgs(in)
	case ir.OpCallStatic:
		if in.M == nil {
			return fmt.Errorf("callstatic without method")
		}
		if in.A != ir.NoReg {
			if !in.M.IsCtor {
				return fmt.Errorf("callstatic with receiver but %s is not a constructor", in.M.Name)
			}
			if err := v.want(in.A, cRef, "receiver"); err != nil {
				return err
			}
		}
		return v.callArgs(in)
	case ir.OpRet:
		if in.A == ir.NoReg {
			// Bare return: also emitted by fall-off trap paths in
			// value-returning functions, so always legal.
			return nil
		}
		if v.f.Method == nil || v.f.Method.Ret == nil {
			return nil
		}
		rt := v.f.Method.Ret
		if rt.Kind == lang.TVoid {
			return fmt.Errorf("value return from void function")
		}
		return v.want(in.A, classOfType(rt), "return value")
	case ir.OpBranch:
		return v.want(in.A, cInt, "condition")
	case ir.OpIntr:
		// Intrinsic signatures are checked by the front end; registers are
		// validated structurally by ir.Func.Verify.
		return nil
	case ir.OpNullCheck:
		// Ref in P; the transform leaves the op in place over the retyped
		// (long) record register, which facade context merges with ref.
		return v.want(in.A, cRef, "receiver")
	case ir.OpMonEnter, ir.OpMonExit:
		return v.want(in.A, cRef, "monitor")
	case ir.OpPNew:
		if in.Cls == nil {
			return fmt.Errorf("pnew without class")
		}
		return v.want(in.Dst, cLong, "dst")
	case ir.OpPNewArr:
		if in.Type == nil {
			return fmt.Errorf("pnewarr without element type")
		}
		if err := v.want(in.A, cInt, "length"); err != nil {
			return err
		}
		return v.want(in.Dst, cLong, "dst")
	case ir.OpPLoad:
		if err := v.fieldOK(in.Field, false); err != nil {
			return err
		}
		if err := v.want(in.A, cLong, "record"); err != nil {
			return err
		}
		return v.want(in.Dst, classOfType(in.Field.Type), "dst")
	case ir.OpPStore:
		if err := v.fieldOK(in.Field, false); err != nil {
			return err
		}
		if err := v.want(in.A, cLong, "record"); err != nil {
			return err
		}
		return v.want(in.B, classOfType(in.Field.Type), "value")
	case ir.OpPALoad:
		if in.Type == nil {
			return fmt.Errorf("paload without element type")
		}
		if err := v.want(in.A, cLong, "record"); err != nil {
			return err
		}
		if err := v.want(in.B, cInt, "index"); err != nil {
			return err
		}
		// The bridge reads record payloads into long-typed registers and
		// retypes with a Move, so accept the element class or a raw long.
		if v.compat(v.regClass(in.Dst), classOfType(in.Type)) || v.compat(v.regClass(in.Dst), cLong) {
			return nil
		}
		return fmt.Errorf("dst: r%d is %s, want %s or long", in.Dst, v.regClass(in.Dst), classOfType(in.Type))
	case ir.OpPAStore:
		if in.Type == nil {
			return fmt.Errorf("pastore without element type")
		}
		if err := v.want(in.A, cLong, "record"); err != nil {
			return err
		}
		if err := v.want(in.B, cInt, "index"); err != nil {
			return err
		}
		if v.compat(v.regClass(in.C), classOfType(in.Type)) || v.compat(v.regClass(in.C), cLong) {
			return nil
		}
		return fmt.Errorf("value: r%d is %s, want %s or long", in.C, v.regClass(in.C), classOfType(in.Type))
	case ir.OpPALen:
		if err := v.want(in.A, cLong, "record"); err != nil {
			return err
		}
		return v.want(in.Dst, cInt, "dst")
	case ir.OpPInstOf:
		if in.Cls == nil && in.Type == nil {
			return fmt.Errorf("pinstof without class or array type")
		}
		if err := v.want(in.A, cLong, "record"); err != nil {
			return err
		}
		return v.want(in.Dst, cInt, "dst")
	case ir.OpPCast:
		if in.Cls == nil && in.Type == nil {
			return fmt.Errorf("pcast without class or array type")
		}
		if err := v.want(in.A, cLong, "record"); err != nil {
			return err
		}
		return v.want(in.Dst, cLong, "dst")
	case ir.OpResolve:
		if err := v.want(in.A, cLong, "record"); err != nil {
			return err
		}
		return v.want(in.Dst, cRef, "dst")
	case ir.OpPoolGet:
		if in.Cls == nil {
			return fmt.Errorf("poolget without class")
		}
		if in.Imm < 0 {
			return fmt.Errorf("negative pool index %d", in.Imm)
		}
		if v.p.Bounds != nil {
			orig, _ := ir.FacadeOrig(in.Cls.Name)
			if bound, ok := v.p.Bounds[orig]; ok && in.Imm >= int64(bound) {
				return fmt.Errorf("pool index %d exceeds §3.3 bound %d for %s", in.Imm, bound, in.Cls.Name)
			}
		}
		return v.want(in.Dst, cRef, "dst")
	case ir.OpRecvPool:
		if in.Cls == nil {
			return fmt.Errorf("recvpool without class")
		}
		if err := v.want(in.A, cLong, "record"); err != nil {
			return err
		}
		return v.want(in.Dst, cRef, "dst")
	case ir.OpPMonEnter, ir.OpPMonExit:
		return v.want(in.A, cLong, "monitor")
	}
	return fmt.Errorf("unknown opcode %d", in.Op)
}

func (v *verifier) callArgs(in *ir.Instr) error {
	m := in.M
	if len(in.Args) != len(m.Params) {
		return fmt.Errorf("%s: %d args, want %d", m.Name, len(in.Args), len(m.Params))
	}
	for i, a := range in.Args {
		if a == ir.NoReg {
			return fmt.Errorf("%s: arg %d missing", m.Name, i)
		}
		if have, want := v.regClass(a), classOfType(m.Params[i]); !v.compat(have, want) {
			return fmt.Errorf("%s: arg %d: r%d is %s, want %s", m.Name, i, a, have, want)
		}
	}
	if in.Dst != ir.NoReg && m.Ret != nil && m.Ret.Kind != lang.TVoid {
		if have, want := v.regClass(in.Dst), classOfType(m.Ret); !v.compat(have, want) {
			return fmt.Errorf("%s: result: r%d is %s, want %s", m.Name, in.Dst, have, want)
		}
	}
	return nil
}
