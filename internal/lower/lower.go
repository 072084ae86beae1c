// Package lower translates checked FJ ASTs (internal/lang) into the
// register IR (internal/ir). The translation is direct: one virtual
// register per local variable plus fresh registers for temporaries, and a
// basic-block CFG with explicit jumps. No optimization is performed; the
// FACADE transform and the VM consume the output as-is.
package lower

import (
	"fmt"
	"slices"

	"repro/internal/ir"
	"repro/internal/lang"
)

// Program lowers every method of every class in h into an ir.Program.
func Program(h *lang.Hierarchy) (*ir.Program, error) {
	n := 0
	for _, c := range h.ClassList {
		if c.Ctor != nil {
			n++
		}
		n += len(c.Methods)
	}
	p := &ir.Program{H: h, Funcs: make(map[string]*ir.Func, n), FuncList: make([]*ir.Func, 0, n)}
	b := &builder{p: p, h: h}
	for _, c := range h.ClassList {
		if c.Ctor != nil {
			f, err := b.lowerMethod(c, c.Ctor, ir.CtorKey(c.Name))
			if err != nil {
				return nil, err
			}
			p.AddFunc(f)
		}
		for _, name := range sortedMethodNames(c) {
			m := c.Methods[name]
			f, err := b.lowerMethod(c, m, ir.FuncKey(c.Name, name))
			if err != nil {
				return nil, err
			}
			p.AddFunc(f)
		}
	}
	if err := p.Verify(); err != nil {
		return nil, fmt.Errorf("lowering produced invalid IR: %w", err)
	}
	return p, nil
}

func sortedMethodNames(c *lang.Class) []string {
	names := make([]string, 0, len(c.Methods))
	for n := range c.Methods {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

type loopCtx struct {
	breakBlk    int
	continueBlk int
	syncDepth   int
}

// builder lowers the methods of one Program, one at a time. Its buffers
// live for that one call: a method's instructions and register types
// collect in the emitter, whose Finish copies them into the method's
// exact-size arrays.
type builder struct {
	p      *ir.Program
	h      *lang.Hierarchy
	cls    *lang.Class
	m      *lang.Method
	fn     *ir.Func
	cur    int  // ID of the block being emitted into
	sealed bool // current block already has a terminator
	vars   []map[string]ir.Reg
	loops  []loopCtx
	syncs  []ir.Reg // active synchronized lock registers
	// pos is the source position of the statement/expression being
	// lowered; emit stamps it onto instructions that carry none.
	pos lang.Pos

	em     ir.Emitter
	scopes []map[string]ir.Reg // every scope map made so far, for reuse
}

func (b *builder) lowerMethod(c *lang.Class, m *lang.Method, key string) (*ir.Func, error) {
	b.cls, b.m = c, m
	b.fn = &ir.Func{Name: key, Class: c, Method: m}
	b.em.Start(b.fn)
	b.vars, b.loops, b.syncs, b.pos = b.vars[:0], b.loops[:0], b.syncs[:0], lang.Pos{}
	b.pushScope()
	nparams := len(m.ParamNames)
	if !m.Static {
		nparams++
	}
	b.fn.Params = make([]ir.Reg, 0, nparams)
	if !m.Static {
		this := b.fn.NewReg(lang.ClassType(c.Name))
		b.fn.Params = append(b.fn.Params, this)
		b.scope()["this"] = this
	}
	for i, pn := range m.ParamNames {
		r := b.fn.NewReg(m.Params[i])
		b.fn.Params = append(b.fn.Params, r)
		b.scope()[pn] = r
	}
	b.startBlock()
	if err := b.stmt(m.Decl.Body); err != nil {
		return nil, err
	}
	if !b.sealed {
		if m.Ret == lang.VoidType || m.IsCtor {
			b.emit(ir.Instr{Op: ir.OpRet, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg})
		} else {
			// Falling off the end of a value-returning method traps at
			// run time (FJ has no definite-return analysis).
			b.emit(ir.Instr{Op: ir.OpIntr, Sym: "trapNoReturn", Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg})
			b.emit(ir.Instr{Op: ir.OpRet, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg})
		}
	}
	return b.em.Finish(), nil
}

// pushScope opens a scope, reusing a map an earlier scope of this Program
// made when there is one.
func (b *builder) pushScope() {
	if n := len(b.vars); n < len(b.scopes) {
		clear(b.scopes[n])
		b.vars = append(b.vars, b.scopes[n])
		return
	}
	m := make(map[string]ir.Reg)
	b.scopes = append(b.scopes, m)
	b.vars = append(b.vars, m)
}
func (b *builder) popScope() { b.vars = b.vars[:len(b.vars)-1] }
func (b *builder) scope() map[string]ir.Reg {
	return b.vars[len(b.vars)-1]
}

func (b *builder) lookup(name string) (ir.Reg, bool) {
	for i := len(b.vars) - 1; i >= 0; i-- {
		if r, ok := b.vars[i][name]; ok {
			return r, true
		}
	}
	return ir.NoReg, false
}

// newSite numbers an allocation site. Lowering order is deterministic
// (files sorted, classes and methods in declaration order), so the same
// source always produces the same site IDs — the property that lets
// classifications computed on P apply to P' and lets profiles be compared
// across runs.
func (b *builder) newSite() int32 {
	b.p.NumSites++
	return int32(b.p.NumSites)
}

// newBlock appends an empty block and returns its ID.
func (b *builder) newBlock() int { return b.em.NewBlock() }

// startBlock creates a new block and makes it current.
func (b *builder) startBlock() int {
	id := b.newBlock()
	b.cur = id
	b.sealed = false
	return id
}

// useBlock makes an existing block current.
func (b *builder) useBlock(id int) {
	b.cur = id
	b.sealed = false
}

func (b *builder) emit(in ir.Instr) {
	if b.sealed {
		// Dead code after a terminator: collect it in a fresh unreachable
		// block so the CFG stays well formed.
		b.startBlock()
	}
	if in.Pos == (lang.Pos{}) {
		in.Pos = b.pos
	}
	b.em.Emit(b.cur, in)
	switch in.Op {
	case ir.OpJump, ir.OpBranch, ir.OpRet:
		b.sealed = true
	}
}

// instr builds an Instr with all register fields defaulted to NoReg.
func instr(op ir.Op) ir.Instr {
	return ir.Instr{Op: op, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg}
}

func (b *builder) jump(target int) {
	in := instr(ir.OpJump)
	in.Blk = int32(target)
	b.emit(in)
}

func (b *builder) branch(cond ir.Reg, t, f int) {
	in := instr(ir.OpBranch)
	in.A = cond
	in.Blk = int32(t)
	in.Blk2 = int32(f)
	b.emit(in)
}

// ---------------------------------------------------------------------------
// Statements

func (b *builder) stmt(s lang.Stmt) error {
	if pos := stmtPos(s); pos.Line > 0 {
		b.pos = pos
	}
	switch st := s.(type) {
	case *lang.BlockStmt:
		b.pushScope()
		for _, x := range st.Stmts {
			if err := b.stmt(x); err != nil {
				return err
			}
		}
		b.popScope()
		return nil
	case *lang.VarDeclStmt:
		r := b.fn.NewReg(st.T)
		if st.Init != nil {
			v, err := b.expr(st.Init)
			if err != nil {
				return err
			}
			in := instr(ir.OpMove)
			in.Dst = r
			in.A = v
			b.emit(in)
		} else {
			b.emitZero(r, st.T)
		}
		b.scope()[st.Name] = r
		return nil
	case *lang.AssignStmt:
		return b.assign(st)
	case *lang.IfStmt:
		return b.ifStmt(st)
	case *lang.WhileStmt:
		return b.whileStmt(st)
	case *lang.ForStmt:
		return b.forStmt(st)
	case *lang.ReturnStmt:
		// Release any monitors held by enclosing synchronized blocks.
		for i := len(b.syncs) - 1; i >= 0; i-- {
			in := instr(ir.OpMonEnter)
			in.Op = ir.OpMonExit
			in.A = b.syncs[i]
			b.emit(in)
		}
		in := instr(ir.OpRet)
		if st.Value != nil {
			v, err := b.expr(st.Value)
			if err != nil {
				return err
			}
			in.A = v
		}
		b.emit(in)
		return nil
	case *lang.BreakStmt:
		lc := b.loops[len(b.loops)-1]
		b.exitSyncsTo(lc.syncDepth)
		b.jump(lc.breakBlk)
		return nil
	case *lang.ContinueStmt:
		lc := b.loops[len(b.loops)-1]
		b.exitSyncsTo(lc.syncDepth)
		b.jump(lc.continueBlk)
		return nil
	case *lang.ExprStmt:
		_, err := b.expr(st.X)
		return err
	case *lang.SyncStmt:
		lock, err := b.expr(st.Lock)
		if err != nil {
			return err
		}
		in := instr(ir.OpMonEnter)
		in.A = lock
		b.emit(in)
		b.syncs = append(b.syncs, lock)
		if err := b.stmt(st.Body); err != nil {
			return err
		}
		b.syncs = b.syncs[:len(b.syncs)-1]
		out := instr(ir.OpMonExit)
		out.A = lock
		b.emit(out)
		return nil
	}
	return fmt.Errorf("unhandled statement %T", s)
}

// exitSyncsTo emits MonExit for monitors entered above depth (used by
// break/continue that jump out of synchronized blocks).
func (b *builder) exitSyncsTo(depth int) {
	for i := len(b.syncs) - 1; i >= depth; i-- {
		in := instr(ir.OpMonExit)
		in.A = b.syncs[i]
		b.emit(in)
	}
}

func (b *builder) emitZero(r ir.Reg, t *lang.Type) {
	in := instr(ir.OpConst)
	in.Dst = r
	in.Type = t
	in.NumKind = ir.KindOf(t)
	b.emit(in)
}

func (b *builder) assign(st *lang.AssignStmt) error {
	switch tgt := st.Target.(type) {
	case *lang.IdentExpr:
		r, ok := b.lookup(tgt.Name)
		if !ok {
			return fmt.Errorf("%s: unknown variable %s", tgt.Pos, tgt.Name)
		}
		v, err := b.expr(st.Value)
		if err != nil {
			return err
		}
		in := instr(ir.OpMove)
		in.Dst = r
		in.A = v
		b.emit(in)
		return nil
	case *lang.FieldExpr:
		if tgt.ClassName != "" {
			v, err := b.expr(st.Value)
			if err != nil {
				return err
			}
			in := instr(ir.OpStoreStatic)
			in.A = v
			in.Field = tgt.Resolved
			b.emit(in)
			return nil
		}
		obj, err := b.expr(tgt.X)
		if err != nil {
			return err
		}
		v, err := b.expr(st.Value)
		if err != nil {
			return err
		}
		in := instr(ir.OpStore)
		in.A = obj
		in.B = v
		in.Field = tgt.Resolved
		b.emit(in)
		return nil
	case *lang.IndexExpr:
		arr, err := b.expr(tgt.X)
		if err != nil {
			return err
		}
		idx, err := b.expr(tgt.Index)
		if err != nil {
			return err
		}
		v, err := b.expr(st.Value)
		if err != nil {
			return err
		}
		in := instr(ir.OpAStore)
		in.A = arr
		in.B = idx
		in.C = v
		in.Type = tgt.X.Type().Elem
		b.emit(in)
		return nil
	}
	return fmt.Errorf("bad assignment target %T", st.Target)
}

func (b *builder) ifStmt(st *lang.IfStmt) error {
	cond, err := b.expr(st.Cond)
	if err != nil {
		return err
	}
	thenBlk := b.newBlock()
	elseBlk := -1
	joinBlk := b.newBlock()
	if st.Else != nil {
		elseBlk = b.newBlock()
		b.branch(cond, thenBlk, elseBlk)
	} else {
		b.branch(cond, thenBlk, joinBlk)
	}
	b.useBlock(thenBlk)
	if err := b.stmt(st.Then); err != nil {
		return err
	}
	if !b.sealed {
		b.jump(joinBlk)
	}
	if st.Else != nil {
		b.useBlock(elseBlk)
		if err := b.stmt(st.Else); err != nil {
			return err
		}
		if !b.sealed {
			b.jump(joinBlk)
		}
	}
	b.useBlock(joinBlk)
	// If nothing can reach the join block it still needs a terminator; a
	// subsequent statement will extend it, and lowerMethod adds the final
	// return. Nothing to do here.
	return nil
}

func (b *builder) whileStmt(st *lang.WhileStmt) error {
	headBlk := b.newBlock()
	bodyBlk := b.newBlock()
	exitBlk := b.newBlock()
	b.jump(headBlk)
	b.useBlock(headBlk)
	cond, err := b.expr(st.Cond)
	if err != nil {
		return err
	}
	b.branch(cond, bodyBlk, exitBlk)
	b.loops = append(b.loops, loopCtx{breakBlk: exitBlk, continueBlk: headBlk, syncDepth: len(b.syncs)})
	b.useBlock(bodyBlk)
	if err := b.stmt(st.Body); err != nil {
		return err
	}
	if !b.sealed {
		b.jump(headBlk)
	}
	b.loops = b.loops[:len(b.loops)-1]
	b.useBlock(exitBlk)
	return nil
}

func (b *builder) forStmt(st *lang.ForStmt) error {
	b.pushScope()
	if st.Init != nil {
		if err := b.stmt(st.Init); err != nil {
			return err
		}
	}
	headBlk := b.newBlock()
	bodyBlk := b.newBlock()
	postBlk := b.newBlock()
	exitBlk := b.newBlock()
	b.jump(headBlk)
	b.useBlock(headBlk)
	if st.Cond != nil {
		cond, err := b.expr(st.Cond)
		if err != nil {
			return err
		}
		b.branch(cond, bodyBlk, exitBlk)
	} else {
		b.jump(bodyBlk)
	}
	b.loops = append(b.loops, loopCtx{breakBlk: exitBlk, continueBlk: postBlk, syncDepth: len(b.syncs)})
	b.useBlock(bodyBlk)
	if err := b.stmt(st.Body); err != nil {
		return err
	}
	if !b.sealed {
		b.jump(postBlk)
	}
	b.loops = b.loops[:len(b.loops)-1]
	b.useBlock(postBlk)
	if st.Post != nil {
		if err := b.stmt(st.Post); err != nil {
			return err
		}
	}
	if !b.sealed {
		b.jump(headBlk)
	}
	b.useBlock(exitBlk)
	b.popScope()
	return nil
}

// ---------------------------------------------------------------------------
// Expressions

func (b *builder) expr(e lang.Expr) (ir.Reg, error) {
	if pos := exprPos(e); pos.Line > 0 {
		b.pos = pos
	}
	switch x := e.(type) {
	case *lang.IntLit:
		r := b.fn.NewReg(lang.IntType)
		in := instr(ir.OpConst)
		in.Dst = r
		in.Imm = int64(x.Val)
		in.NumKind = ir.KInt
		in.Type = lang.IntType
		b.emit(in)
		return r, nil
	case *lang.LongLit:
		r := b.fn.NewReg(lang.LongType)
		in := instr(ir.OpConst)
		in.Dst = r
		in.Imm = x.Val
		in.NumKind = ir.KLong
		in.Type = lang.LongType
		b.emit(in)
		return r, nil
	case *lang.DoubleLit:
		r := b.fn.NewReg(lang.DoubleType)
		in := instr(ir.OpConst)
		in.Dst = r
		in.SetFloat(x.Val)
		in.NumKind = ir.KDouble
		in.Type = lang.DoubleType
		b.emit(in)
		return r, nil
	case *lang.BoolLit:
		r := b.fn.NewReg(lang.BoolType)
		in := instr(ir.OpConst)
		in.Dst = r
		if x.Val {
			in.Imm = 1
		}
		in.NumKind = ir.KBool
		in.Type = lang.BoolType
		b.emit(in)
		return r, nil
	case *lang.NullLit:
		r := b.fn.NewReg(lang.NullType)
		in := instr(ir.OpConst)
		in.Dst = r
		in.NumKind = ir.KRef
		in.Type = lang.NullType
		b.emit(in)
		return r, nil
	case *lang.StringLit:
		r := b.fn.NewReg(lang.ClassType("String"))
		in := instr(ir.OpStrLit)
		in.Dst = r
		in.Imm = int64(b.p.Intern(x.Val))
		in.Type = lang.ClassType("String")
		b.emit(in)
		return r, nil
	case *lang.ThisExpr:
		r, _ := b.lookup("this")
		return r, nil
	case *lang.IdentExpr:
		r, ok := b.lookup(x.Name)
		if !ok {
			return ir.NoReg, fmt.Errorf("%s: unknown variable %s", x.Pos, x.Name)
		}
		return r, nil
	case *lang.FieldExpr:
		return b.fieldExpr(x)
	case *lang.IndexExpr:
		arr, err := b.expr(x.X)
		if err != nil {
			return ir.NoReg, err
		}
		idx, err := b.expr(x.Index)
		if err != nil {
			return ir.NoReg, err
		}
		r := b.fn.NewReg(x.Type())
		in := instr(ir.OpALoad)
		in.Dst = r
		in.A = arr
		in.B = idx
		in.Type = x.X.Type().Elem
		b.emit(in)
		return r, nil
	case *lang.CallExpr:
		return b.callExpr(x)
	case *lang.NewExpr:
		return b.newExpr(x)
	case *lang.NewArrayExpr:
		n, err := b.expr(x.Len)
		if err != nil {
			return ir.NoReg, err
		}
		r := b.fn.NewReg(lang.ArrayOf(x.ElemT))
		in := instr(ir.OpNewArr)
		in.Dst = r
		in.A = n
		in.Type = x.ElemT
		in.Site = b.newSite()
		b.emit(in)
		return r, nil
	case *lang.UnaryExpr:
		v, err := b.expr(x.X)
		if err != nil {
			return ir.NoReg, err
		}
		r := b.fn.NewReg(x.Type())
		in := instr(ir.OpUn)
		in.Dst = r
		in.A = v
		in.NumKind = ir.KindOf(x.Type())
		if x.Op == lang.TokMinus {
			in.Sub = ir.UnNeg
			// byte negation was promoted to int by the checker's typing.
			in.NumKind = ir.KindOf(x.Type())
		} else {
			in.Sub = ir.UnNot
		}
		b.emit(in)
		return r, nil
	case *lang.BinaryExpr:
		return b.binaryExpr(x)
	case *lang.InstanceOfExpr:
		v, err := b.expr(x.X)
		if err != nil {
			return ir.NoReg, err
		}
		r := b.fn.NewReg(lang.BoolType)
		in := instr(ir.OpInstOf)
		in.Dst = r
		in.A = v
		in.Type = x.TargetT
		b.emit(in)
		return r, nil
	case *lang.CastExpr:
		return b.castExpr(x)
	}
	return ir.NoReg, fmt.Errorf("unhandled expression %T", e)
}

func (b *builder) fieldExpr(x *lang.FieldExpr) (ir.Reg, error) {
	if x.ClassName != "" {
		r := b.fn.NewReg(x.Type())
		in := instr(ir.OpLoadStatic)
		in.Dst = r
		in.Field = x.Resolved
		b.emit(in)
		return r, nil
	}
	obj, err := b.expr(x.X)
	if err != nil {
		return ir.NoReg, err
	}
	if x.IsLen {
		r := b.fn.NewReg(lang.IntType)
		in := instr(ir.OpALen)
		in.Dst = r
		in.A = obj
		in.Type = x.X.Type().Elem
		b.emit(in)
		return r, nil
	}
	r := b.fn.NewReg(x.Type())
	in := instr(ir.OpLoad)
	in.Dst = r
	in.A = obj
	in.Field = x.Resolved
	b.emit(in)
	return r, nil
}

func (b *builder) callExpr(x *lang.CallExpr) (ir.Reg, error) {
	if x.Intrinsic != "" {
		args := make([]ir.Reg, len(x.Args))
		for i, a := range x.Args {
			r, err := b.expr(a)
			if err != nil {
				return ir.NoReg, err
			}
			args[i] = r
		}
		in := instr(ir.OpIntr)
		in.Sym = x.Intrinsic
		in.Args = args
		if x.Type() != lang.VoidType {
			in.Dst = b.fn.NewReg(x.Type())
			// Record argument type for polymorphic intrinsics (print).
			if len(x.Args) > 0 {
				in.Type = x.Args[0].Type()
			}
		} else if len(x.Args) > 0 {
			in.Type = x.Args[0].Type()
		}
		if x.Intrinsic == "fillNew" {
			// A bulk allocation of the destination's element class: one
			// site, like the new it stands for.
			in.Cls = b.h.Class(in.Type.Elem.Name)
			in.Site = b.newSite()
		}
		b.emit(in)
		return in.Dst, nil
	}
	var recv ir.Reg = ir.NoReg
	if x.Recv != nil {
		r, err := b.expr(x.Recv)
		if err != nil {
			return ir.NoReg, err
		}
		recv = r
	}
	args := make([]ir.Reg, len(x.Args))
	for i, a := range x.Args {
		r, err := b.expr(a)
		if err != nil {
			return ir.NoReg, err
		}
		args[i] = r
	}
	in := instr(ir.OpCall)
	if x.Resolved.Static {
		in.Op = ir.OpCallStatic
	}
	in.A = recv
	in.Args = args
	in.M = x.Resolved
	if x.Resolved.Ret != lang.VoidType {
		in.Dst = b.fn.NewReg(x.Resolved.Ret)
	}
	b.emit(in)
	return in.Dst, nil
}

func (b *builder) newExpr(x *lang.NewExpr) (ir.Reg, error) {
	r := b.fn.NewReg(lang.ClassType(x.Class))
	in := instr(ir.OpNew)
	in.Dst = r
	in.Cls = x.Cls
	in.Site = b.newSite()
	b.emit(in)
	if x.Ctor != nil {
		args := make([]ir.Reg, len(x.Args))
		for i, a := range x.Args {
			ar, err := b.expr(a)
			if err != nil {
				return ir.NoReg, err
			}
			args[i] = ar
		}
		call := instr(ir.OpCallStatic)
		call.A = r
		call.Args = args
		call.M = x.Ctor
		b.emit(call)
	}
	return r, nil
}

func (b *builder) castExpr(x *lang.CastExpr) (ir.Reg, error) {
	v, err := b.expr(x.X)
	if err != nil {
		return ir.NoReg, err
	}
	src := x.X.Type()
	dst := x.TargetT
	if src.IsNumeric() && dst.IsNumeric() {
		sk, dk := ir.KindOf(src), ir.KindOf(dst)
		if sk == dk {
			return v, nil
		}
		r := b.fn.NewReg(dst)
		in := instr(ir.OpConv)
		in.Dst = r
		in.A = v
		in.NumKind = sk
		in.NumKind2 = dk
		b.emit(in)
		return r, nil
	}
	// Reference casts: upcasts need no check; downcasts are checked.
	if b.h.IsAssignable(dst, src) || src.Kind == lang.TNull ||
		(dst.Kind == lang.TClass && dst.Name == "Object") {
		r := b.fn.NewReg(dst)
		in := instr(ir.OpMove)
		in.Dst = r
		in.A = v
		b.emit(in)
		return r, nil
	}
	r := b.fn.NewReg(dst)
	in := instr(ir.OpCast)
	in.Dst = r
	in.A = v
	in.Type = dst
	b.emit(in)
	return r, nil
}

func (b *builder) binaryExpr(x *lang.BinaryExpr) (ir.Reg, error) {
	// Short-circuit && and ||.
	if x.Op == lang.TokAndAnd || x.Op == lang.TokOrOr {
		r := b.fn.NewReg(lang.BoolType)
		lhs, err := b.expr(x.X)
		if err != nil {
			return ir.NoReg, err
		}
		mv := instr(ir.OpMove)
		mv.Dst = r
		mv.A = lhs
		b.emit(mv)
		rhsBlk := b.newBlock()
		joinBlk := b.newBlock()
		if x.Op == lang.TokAndAnd {
			b.branch(lhs, rhsBlk, joinBlk)
		} else {
			b.branch(lhs, joinBlk, rhsBlk)
		}
		b.useBlock(rhsBlk)
		rhs, err := b.expr(x.Y)
		if err != nil {
			return ir.NoReg, err
		}
		mv2 := instr(ir.OpMove)
		mv2.Dst = r
		mv2.A = rhs
		b.emit(mv2)
		b.jump(joinBlk)
		b.useBlock(joinBlk)
		return r, nil
	}
	lhs, err := b.expr(x.X)
	if err != nil {
		return ir.NoReg, err
	}
	rhs, err := b.expr(x.Y)
	if err != nil {
		return ir.NoReg, err
	}
	r := b.fn.NewReg(x.Type())
	in := instr(ir.OpBin)
	in.Dst = r
	in.A = lhs
	in.B = rhs
	in.NumKind = ir.KindOf(x.X.Type())
	switch x.Op {
	case lang.TokPlus:
		in.Sub = ir.BinAdd
	case lang.TokMinus:
		in.Sub = ir.BinSub
	case lang.TokStar:
		in.Sub = ir.BinMul
	case lang.TokSlash:
		in.Sub = ir.BinDiv
	case lang.TokPercent:
		in.Sub = ir.BinRem
	case lang.TokAnd:
		in.Sub = ir.BinAnd
	case lang.TokOr:
		in.Sub = ir.BinOr
	case lang.TokCaret:
		in.Sub = ir.BinXor
	case lang.TokShl:
		in.Sub = ir.BinShl
	case lang.TokShr:
		in.Sub = ir.BinShr
	case lang.TokLt:
		in.Sub = ir.BinLt
	case lang.TokLe:
		in.Sub = ir.BinLe
	case lang.TokGt:
		in.Sub = ir.BinGt
	case lang.TokGe:
		in.Sub = ir.BinGe
	case lang.TokEq:
		in.Sub = ir.BinEq
	case lang.TokNe:
		in.Sub = ir.BinNe
	default:
		return ir.NoReg, fmt.Errorf("bad binary op %s", x.Op)
	}
	b.emit(in)
	return r, nil
}

// ---------------------------------------------------------------------------
// Source positions

// stmtPos returns the source position of a statement node.
func stmtPos(s lang.Stmt) lang.Pos {
	switch st := s.(type) {
	case *lang.BlockStmt:
		return st.Pos
	case *lang.VarDeclStmt:
		return st.Pos
	case *lang.AssignStmt:
		return st.Pos
	case *lang.IfStmt:
		return st.Pos
	case *lang.WhileStmt:
		return st.Pos
	case *lang.ForStmt:
		return st.Pos
	case *lang.ReturnStmt:
		return st.Pos
	case *lang.BreakStmt:
		return st.Pos
	case *lang.ContinueStmt:
		return st.Pos
	case *lang.ExprStmt:
		return st.Pos
	case *lang.SyncStmt:
		return st.Pos
	}
	return lang.Pos{}
}

// exprPos returns the source position of an expression node.
func exprPos(e lang.Expr) lang.Pos {
	switch x := e.(type) {
	case *lang.IntLit:
		return x.Pos
	case *lang.LongLit:
		return x.Pos
	case *lang.DoubleLit:
		return x.Pos
	case *lang.BoolLit:
		return x.Pos
	case *lang.NullLit:
		return x.Pos
	case *lang.StringLit:
		return x.Pos
	case *lang.IdentExpr:
		return x.Pos
	case *lang.ThisExpr:
		return x.Pos
	case *lang.FieldExpr:
		return x.Pos
	case *lang.IndexExpr:
		return x.Pos
	case *lang.CallExpr:
		return x.Pos
	case *lang.NewExpr:
		return x.Pos
	case *lang.NewArrayExpr:
		return x.Pos
	case *lang.UnaryExpr:
		return x.Pos
	case *lang.BinaryExpr:
		return x.Pos
	case *lang.InstanceOfExpr:
		return x.Pos
	case *lang.CastExpr:
		return x.Pos
	}
	return lang.Pos{}
}
