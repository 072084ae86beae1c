package core

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/lang"
)

// transformBody rewrites one data-path method into its facade twin,
// implementing the instruction transformation of Table 1. The CFG shape is
// preserved: each input instruction expands to one or more instructions in
// the same basic block, so jump targets stay valid.
func (tr *transformer) transformBody(of *ir.Func, fc *lang.Class, nm *lang.Method, key string) (*ir.Func, error) {
	if of == nil {
		return nil, fmt.Errorf("facade: missing original body for %s", key)
	}
	nf := &ir.Func{
		Name:    key,
		Class:   fc,
		Method:  nm,
		NumRegs: of.NumRegs,
	}
	tr.em.Start(nf)
	c := &bodyCtx{tr: tr, of: of, nf: nf, ot: of.RegTypes}
	// Register retyping: every data-typed register becomes a page
	// reference.
	for _, t := range of.RegTypes {
		if tr.isDataType(t) {
			t = refType(t)
		}
		nf.RegTypes = append(nf.RegTypes, t)
	}

	// Parameters and prologue (Table 1, case 1): data-class parameters
	// arrive as facades; the prologue, which opens block 0, copies their
	// pageRef into the original (now long) register. Data arrays arrive as
	// raw longs in the original register; everything else is unchanged.
	c.blk = tr.em.NewBlock()
	nf.Params = make([]ir.Reg, 0, len(of.Params))
	isStatic := of.Method == nil || of.Method.Static
	for i, p := range of.Params {
		var origType *lang.Type
		if !isStatic && i == 0 {
			origType = lang.ClassType(of.Class.Name)
		} else {
			pi := i
			if !isStatic {
				pi--
			}
			origType = of.Method.Params[pi]
		}
		if tr.isDataScalar(origType) {
			ft := tr.mapType(origType)
			if !isStatic && i == 0 {
				ft = lang.ClassType(fc.Name)
			}
			fp := c.nf.NewReg(ft)
			nf.Params = append(nf.Params, fp)
			c.emit(ir.Instr{
				Op: ir.OpLoad, Dst: p, A: fp, B: ir.NoReg, C: ir.NoReg,
				Field: tr.pageRefField(),
			})
			continue
		}
		nf.Params = append(nf.Params, p)
	}

	for bi, ob := range of.Blocks {
		if bi > 0 {
			c.blk = tr.em.NewBlock()
		}
		for i := range ob.Instrs {
			if err := c.instr(&ob.Instrs[i]); err != nil {
				return nil, fmt.Errorf("%s: %w", key, err)
			}
		}
	}
	return tr.em.Finish(), nil
}

func (tr *transformer) pageRefField() *lang.Field { return tr.facadeBase.Fields[0] }

type bodyCtx struct {
	tr  *transformer
	of  *ir.Func
	nf  *ir.Func
	ot  []*lang.Type // original register types
	blk int          // the block being emitted into
}

func (c *bodyCtx) emit(in ir.Instr) { c.tr.em.Emit(c.blk, in) }

// d reports whether register r held a data value in the original body.
func (c *bodyCtx) d(r ir.Reg) bool {
	return r != ir.NoReg && c.tr.isDataType(c.ot[r])
}

func (c *bodyCtx) instr(in *ir.Instr) error {
	tr := c.tr
	cp := *in // Finish copies cp.Args; nothing here writes them
	switch in.Op {
	case ir.OpNop, ir.OpConst, ir.OpMove, ir.OpBin, ir.OpUn, ir.OpConv,
		ir.OpJump, ir.OpBranch:
		// Unchanged (case 2 and arithmetic/control); data registers have
		// already been retyped to longs, and reference equality on page
		// references is value equality.
		c.emit(cp)
		return nil

	case ir.OpStrLit:
		if tr.data["String"] {
			// String is a data class: the literal is interned as a page
			// record. The KLong mark tells the VM which cache to use.
			cp.NumKind = ir.KLong
		}
		c.emit(cp)
		return nil

	case ir.OpNew:
		if tr.data[in.Cls.Name] {
			// Transformation 3: allocate the record; the constructor call
			// that follows is rewritten by the OpCallStatic case.
			cp.Op = ir.OpPNew
			cp.Cls = tr.facades[in.Cls.Name]
			cp.Imm = int64(in.Cls.BodySize)
		}
		c.emit(cp)
		return nil

	case ir.OpNewArr:
		// All arrays created in the data path are page arrays.
		cp.Op = ir.OpPNewArr
		c.emit(cp)
		return nil

	case ir.OpLoad:
		if c.d(in.A) {
			cp.Op = ir.OpPLoad // case 4.1 (and primitive loads)
			c.emit(cp)
			return nil
		}
		if tr.isDataType(in.Field.Type) {
			// Case 4.3, interaction point: a heap object yields a data
			// value; convert it into a page record.
			tmp := c.nf.NewReg(in.Field.Type)
			c.emit(ir.Instr{Op: ir.OpLoad, Dst: tmp, A: in.A, B: ir.NoReg, C: ir.NoReg, Field: in.Field})
			return c.emitConvertFrom(in.Field.Type, tmp, in.Dst)
		}
		c.emit(cp)
		return nil

	case ir.OpStore:
		if c.d(in.A) {
			if !tr.isDataType(in.Field.Type) && in.Field.Type.IsRef() {
				// Case 3.4: a data record would reference a control
				// object.
				return fmt.Errorf("facade: assumption violation: store of non-data reference into data field %s.%s",
					in.Field.Owner.Name, in.Field.Name)
			}
			cp.Op = ir.OpPStore // case 3.1
			c.emit(cp)
			return nil
		}
		if c.d(in.B) {
			// Case 3.3, interaction point: a data value flows into a
			// control object; convert the record back to a heap object.
			tmp, err := c.convertToTmp(c.ot[in.B], in.B)
			if err != nil {
				return err
			}
			c.emit(ir.Instr{Op: ir.OpStore, Dst: ir.NoReg, A: in.A, B: tmp, C: ir.NoReg, Field: in.Field})
			return nil
		}
		c.emit(cp)
		return nil

	case ir.OpLoadStatic, ir.OpStoreStatic:
		if nf := tr.newStatics[in.Field]; nf != nil {
			cp.Field = nf
		} else if tr.isDataType(in.Field.Type) {
			// A control class exposing a data-typed static: interaction
			// point; handled like 4.3/3.3.
			if in.Op == ir.OpLoadStatic {
				tmp := c.nf.NewReg(in.Field.Type)
				c.emit(ir.Instr{Op: ir.OpLoadStatic, Dst: tmp, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Field: in.Field})
				return c.emitConvertFrom(in.Field.Type, tmp, in.Dst)
			}
			tmp, err := c.convertToTmp(c.ot[in.A], in.A)
			if err != nil {
				return err
			}
			c.emit(ir.Instr{Op: ir.OpStoreStatic, Dst: ir.NoReg, A: tmp, B: ir.NoReg, C: ir.NoReg, Field: in.Field})
			return nil
		}
		c.emit(cp)
		return nil

	case ir.OpALoad:
		cp.Op = ir.OpPALoad
		c.emit(cp)
		return nil
	case ir.OpAStore:
		cp.Op = ir.OpPAStore
		c.emit(cp)
		return nil
	case ir.OpALen:
		cp.Op = ir.OpPALen
		c.emit(cp)
		return nil

	case ir.OpInstOf:
		if !c.d(in.A) {
			c.emit(cp)
			return nil
		}
		return c.pInstOf(in, &cp, false)

	case ir.OpCast:
		if !c.d(in.A) {
			c.emit(cp)
			return nil
		}
		return c.pInstOf(in, &cp, true)

	case ir.OpNullCheck:
		if c.d(in.A) {
			// The inlined call's receiver is a record: P' would have
			// trapped drawing the facade for the monomorphic call the
			// inliner removed, so keep that text.
			cp.Sym = "devirtualized call on null record"
		}
		c.emit(cp)
		return nil

	case ir.OpMonEnter:
		if c.d(in.A) {
			cp.Op = ir.OpPMonEnter
		}
		c.emit(cp)
		return nil
	case ir.OpMonExit:
		if c.d(in.A) {
			cp.Op = ir.OpPMonExit
		}
		c.emit(cp)
		return nil

	case ir.OpIntr:
		return c.intr(in, &cp)

	case ir.OpRet:
		return c.ret(in)

	case ir.OpCall:
		return c.call(in)

	case ir.OpCallStatic:
		return c.callStatic(in)
	}
	return fmt.Errorf("facade: unhandled op %s", in.Op)
}

// pInstOf handles cases 7.1/7.2 for instanceof (asCast=false) and the
// checked-cast analogue.
func (c *bodyCtx) pInstOf(in *ir.Instr, cp *ir.Instr, asCast bool) error {
	tr := c.tr
	target := in.Type
	switch {
	case target.Kind == lang.TClass && target.Name == "Object":
		if asCast {
			c.emit(ir.Instr{Op: ir.OpMove, Dst: in.Dst, A: in.A, B: ir.NoReg, C: ir.NoReg})
		} else {
			c.emit(ir.Instr{Op: ir.OpConst, Dst: in.Dst, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 1, NumKind: ir.KBool, Type: lang.BoolType})
		}
		return nil
	case target.Kind == lang.TClass && tr.data[target.Name]:
		cp.Cls = tr.facades[target.Name]
		cp.Type = nil
	case target.Kind == lang.TIface && tr.dataIf[target.Name]:
		cp.Cls = nil
		cp.Type = lang.IfaceType(ir.FacadeName(target.Name))
	case target.Kind == lang.TArray:
		cp.Cls = nil // case 7.2: compare array type IDs
	default:
		if asCast {
			return fmt.Errorf("facade: cast of data value to non-data type %s", target)
		}
		// A record is never an instance of a control type.
		c.emit(ir.Instr{Op: ir.OpConst, Dst: in.Dst, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, NumKind: ir.KBool, Type: lang.BoolType})
		return nil
	}
	if asCast {
		cp.Op = ir.OpPCast
	} else {
		cp.Op = ir.OpPInstOf
	}
	c.emit(*cp)
	return nil
}

func (c *bodyCtx) intr(in *ir.Instr, cp *ir.Instr) error {
	switch in.Sym {
	case "print", "println":
		if len(in.Args) == 1 && c.d(in.Args[0]) {
			cp.Sym = in.Sym + "Rec"
		}
	case "arraycopy":
		// Arrays in the data path are page arrays.
		cp.Sym = "arraycopyRec"
	case "fillNew":
		// §3.5's conversion at the interaction point, in bulk: the columns
		// become records of the destination's class, which must be data.
		if !c.tr.data[in.Cls.Name] {
			return fmt.Errorf("facade: assumption violation: Sys.fillNew of control class %s in the data path", in.Cls.Name)
		}
		cp.Sym = "fillNewRec"
	case "release":
		if len(in.Args) == 1 && c.d(in.Args[0]) {
			cp.Sym = "releaseRec"
		}
	}
	c.emit(*cp)
	return nil
}

// ret implements case 5: data returns travel in pool facade 0. The
// decision is made on the method's declared return type so that `return
// null` also goes through a (null-bound) facade.
func (c *bodyCtx) ret(in *ir.Instr) error {
	tr := c.tr
	var retT *lang.Type
	if c.of.Method != nil {
		retT = c.of.Method.Ret
	}
	if in.A == ir.NoReg || retT == nil || !tr.isDataScalar(retT) {
		cp := *in
		c.emit(cp)
		return nil
	}
	pool, err := tr.poolClassName(retT)
	if err != nil {
		return err
	}
	fcls := tr.facades[pool]
	af := c.nf.NewReg(lang.ClassType(fcls.Name))
	c.emit(ir.Instr{Op: ir.OpPoolGet, Dst: af, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Cls: fcls, Imm: 0})
	c.emit(ir.Instr{Op: ir.OpStore, Dst: ir.NoReg, A: af, B: in.A, C: ir.NoReg, Field: tr.pageRefField()})
	c.emit(ir.Instr{Op: ir.OpRet, Dst: ir.NoReg, A: af, B: ir.NoReg, C: ir.NoReg})
	return nil
}

// bindArgs rewrites call arguments against the callee's original
// signature, drawing parameter facades from per-type pools (case 6.1).
func (c *bodyCtx) bindArgs(m *lang.Method, args []ir.Reg) ([]ir.Reg, map[string]int, error) {
	tr := c.tr
	out := make([]ir.Reg, len(args))
	perPool := make(map[string]int)
	for i, r := range args {
		pt := m.Params[i]
		if tr.isDataScalar(pt) {
			pool, err := tr.poolClassName(pt)
			if err != nil {
				return nil, nil, err
			}
			fcls := tr.facades[pool]
			idx := perPool[pool]
			perPool[pool]++
			bf := c.nf.NewReg(lang.ClassType(fcls.Name))
			c.emit(ir.Instr{Op: ir.OpPoolGet, Dst: bf, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Cls: fcls, Imm: int64(idx)})
			c.emit(ir.Instr{Op: ir.OpStore, Dst: ir.NoReg, A: bf, B: r, C: ir.NoReg, Field: tr.pageRefField()})
			out[i] = bf
			continue
		}
		if tr.isDataType(pt) || !pt.IsRef() || !c.d(r) {
			out[i] = r
			continue
		}
		// Data value flowing into a control-typed parameter cannot occur
		// inside the data path (the checker typed it), but a data value
		// into an Object parameter of a control method is case 6.3 and is
		// handled by the caller before reaching here.
		out[i] = r
	}
	return out, perPool, nil
}

// call implements case 6 for virtual calls.
func (c *bodyCtx) call(in *ir.Instr) error {
	tr := c.tr
	if !c.d(in.A) {
		return c.controlCall(in, false)
	}
	// 6.1/6.2: data receiver.
	recvT := c.ot[in.A]
	fm, err := tr.facadeMethod(recvT, in.M.Name)
	if err != nil {
		return err
	}
	args, _, err := c.bindArgs(in.M, in.Args)
	if err != nil {
		return err
	}
	var afType *lang.Type
	if recvT.Kind == lang.TClass {
		afType = lang.ClassType(ir.FacadeName(recvT.Name))
	} else {
		afType = tr.mapType(recvT)
	}
	af := c.nf.NewReg(afType)
	// §3.6 static resolution of virtual calls: a monomorphic site draws its
	// facade by static type, every other site consults the record's type tag.
	if tr.monomorphic(recvT, in.M.Name) {
		c.emit(ir.Instr{Op: ir.OpRecvPool, Dst: af, A: in.A, B: ir.NoReg, C: ir.NoReg,
			Cls: tr.facades[recvT.Name]})
	} else {
		c.emit(ir.Instr{Op: ir.OpResolve, Dst: af, A: in.A, B: ir.NoReg, C: ir.NoReg})
	}
	callDst := in.Dst
	unwrap := false
	if in.Dst != ir.NoReg && tr.isDataScalar(in.M.Ret) {
		callDst = c.nf.NewReg(tr.mapType(in.M.Ret))
		unwrap = true
	}
	c.emit(ir.Instr{Op: ir.OpCall, Dst: callDst, A: af, B: ir.NoReg, C: ir.NoReg, M: fm, Args: args})
	if unwrap {
		c.emit(ir.Instr{Op: ir.OpLoad, Dst: in.Dst, A: callDst, B: ir.NoReg, C: ir.NoReg, Field: tr.pageRefField()})
	}
	return nil
}

// monomorphic reports whether class-hierarchy analysis proves that a call
// of method name on a receiver of static type recvT always lands in the
// same implementation: the receiver must be a concrete data class none of
// whose subclasses (all data, by the type-closed world) override the method.
func (tr *transformer) monomorphic(recvT *lang.Type, name string) bool {
	return recvT.Kind == lang.TClass && tr.data[recvT.Name] &&
		!tr.p.H.Class(recvT.Name).Overridden(name)
}

// facadeMethod resolves the facade twin of method name on a data receiver
// type.
func (tr *transformer) facadeMethod(recvT *lang.Type, name string) (*lang.Method, error) {
	switch recvT.Kind {
	case lang.TClass:
		fc := tr.facades[recvT.Name]
		if fc == nil {
			return nil, fmt.Errorf("facade: no facade class for %s", recvT.Name)
		}
		if m := fc.Resolve(name); m != nil {
			return m, nil
		}
		return nil, fmt.Errorf("facade: %s has no facade method %s", recvT.Name, name)
	case lang.TIface:
		ni := tr.ifaces[recvT.Name]
		if ni == nil {
			return nil, fmt.Errorf("facade: no facade interface for %s", recvT.Name)
		}
		if m := ni.Methods[name]; m != nil {
			return m, nil
		}
		return nil, fmt.Errorf("facade: interface %sFacade has no method %s", recvT.Name, name)
	}
	return nil, fmt.Errorf("facade: bad receiver type %s", recvT)
}

// controlCall handles calls whose receiver (or owner) stays in the control
// path: data arguments are converted to heap objects (case 6.3), data
// results converted back.
func (c *bodyCtx) controlCall(in *ir.Instr, isStatic bool) error {
	tr := c.tr
	cp := *in
	cp.Args = append([]ir.Reg(nil), in.Args...)
	for i, r := range in.Args {
		if c.d(r) {
			tmp, err := c.convertToTmp(c.ot[r], r)
			if err != nil {
				return err
			}
			cp.Args[i] = tmp
		}
	}
	if in.Dst != ir.NoReg && tr.isDataType(in.M.Ret) {
		tmp := c.nf.NewReg(in.M.Ret)
		cp.Dst = tmp
		c.emit(cp)
		return c.emitConvertFrom(in.M.Ret, tmp, in.Dst)
	}
	c.emit(cp)
	return nil
}

// callStatic implements case 6 for static calls and transformation 3 for
// constructor calls on freshly allocated records.
func (c *bodyCtx) callStatic(in *ir.Instr) error {
	tr := c.tr
	m := in.M
	ownerData := m.Owner != nil && tr.data[m.Owner.Name]
	if !ownerData {
		return c.controlCall(in, true)
	}
	fc := tr.facades[m.Owner.Name]
	if m.IsCtor {
		args, perPool, err := c.bindArgs(m, in.Args)
		if err != nil {
			return err
		}
		// Receiver facade: next free slot of the owner's pool (the bound
		// computation reserved it).
		idx := perPool[m.Owner.Name]
		sf := c.nf.NewReg(lang.ClassType(fc.Name))
		c.emit(ir.Instr{Op: ir.OpPoolGet, Dst: sf, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Cls: fc, Imm: int64(idx)})
		c.emit(ir.Instr{Op: ir.OpStore, Dst: ir.NoReg, A: sf, B: in.A, C: ir.NoReg, Field: tr.pageRefField()})
		c.emit(ir.Instr{Op: ir.OpCallStatic, Dst: ir.NoReg, A: sf, B: ir.NoReg, C: ir.NoReg, M: fc.Ctor, Args: args})
		return nil
	}
	fm := fc.Methods[m.Name]
	if fm == nil {
		return fmt.Errorf("facade: missing facade static %s.%s", fc.Name, m.Name)
	}
	args, _, err := c.bindArgs(m, in.Args)
	if err != nil {
		return err
	}
	callDst := in.Dst
	unwrap := false
	if in.Dst != ir.NoReg && tr.isDataScalar(m.Ret) {
		callDst = c.nf.NewReg(tr.mapType(m.Ret))
		unwrap = true
	}
	c.emit(ir.Instr{Op: ir.OpCallStatic, Dst: callDst, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, M: fm, Args: args})
	if unwrap {
		c.emit(ir.Instr{Op: ir.OpLoad, Dst: in.Dst, A: callDst, B: ir.NoReg, C: ir.NoReg, Field: tr.pageRefField()})
	}
	return nil
}
