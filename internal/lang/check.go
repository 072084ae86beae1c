package lang

import (
	"fmt"
	"sort"
)

// BuildHierarchy resolves the class/interface declarations of the given
// files into a Hierarchy: superclasses, interfaces, field layouts
// (superclass fields first, as required by the page-record layout of
// Figure 1), dispatch tables, and dense type IDs. An Object class must be
// present (the FJ stdlib provides one).
func BuildHierarchy(files ...*File) (*Hierarchy, error) {
	h := &Hierarchy{
		Classes: make(map[string]*Class),
		Ifaces:  make(map[string]*Iface),
	}
	decls := make(map[string]*ClassDecl)
	for _, f := range files {
		for _, i := range f.Ifaces {
			if _, dup := h.Ifaces[i.Name]; dup {
				return nil, fmt.Errorf("%s: duplicate interface %s", i.Pos, i.Name)
			}
			if _, dup := decls[i.Name]; dup {
				return nil, fmt.Errorf("%s: %s declared as both class and interface", i.Pos, i.Name)
			}
			h.Ifaces[i.Name] = &Iface{Name: i.Name, Decl: i, Methods: make(map[string]*Method)}
		}
		for _, c := range f.Classes {
			if _, dup := decls[c.Name]; dup {
				return nil, fmt.Errorf("%s: duplicate class %s", c.Pos, c.Name)
			}
			if _, dup := h.Ifaces[c.Name]; dup {
				return nil, fmt.Errorf("%s: %s declared as both class and interface", c.Pos, c.Name)
			}
			decls[c.Name] = c
			h.Classes[c.Name] = &Class{Name: c.Name, Decl: c, Methods: make(map[string]*Method)}
		}
	}
	if _, ok := h.Classes["Object"]; !ok {
		return nil, fmt.Errorf("no Object class declared (include the FJ stdlib)")
	}
	h.Object = h.Classes["Object"]
	h.String = h.Classes["String"]

	// Resolve interface method signatures.
	for _, name := range sortedIfaceNames(h.Ifaces) {
		iface := h.Ifaces[name]
		for _, md := range iface.Decl.Methods {
			if _, dup := iface.Methods[md.Name]; dup {
				return nil, fmt.Errorf("%s: duplicate method %s in interface %s", md.Pos, md.Name, name)
			}
			m, err := h.resolveSig(md)
			if err != nil {
				return nil, err
			}
			m.OwnerIface = iface
			iface.Methods[md.Name] = m
		}
		h.IfaceList = append(h.IfaceList, iface)
	}

	// Link supers and interfaces.
	for _, name := range sortedClassNames(decls) {
		c := h.Classes[name]
		d := c.Decl
		if name == "Object" {
			if d.Extends != "" {
				return nil, fmt.Errorf("%s: Object must not extend", d.Pos)
			}
		} else {
			superName := d.Extends
			if superName == "" {
				superName = "Object"
			}
			super, ok := h.Classes[superName]
			if !ok {
				return nil, fmt.Errorf("%s: class %s extends unknown class %s", d.Pos, name, superName)
			}
			c.Super = super
		}
		for _, in := range d.Implements {
			iface, ok := h.Ifaces[in]
			if !ok {
				return nil, fmt.Errorf("%s: class %s implements unknown interface %s", d.Pos, name, in)
			}
			c.Ifaces = append(c.Ifaces, iface)
		}
	}
	// Cycle detection + topological ordering (supers first).
	order, err := topoOrder(h, decls)
	if err != nil {
		return nil, err
	}
	h.ClassList = order
	for i, c := range order {
		c.ID = i
		if c.Super != nil {
			c.Super.Subs = append(c.Super.Subs, c)
		}
	}

	// Members and layout in topological order so super layouts exist.
	for _, c := range order {
		if err := h.resolveMembers(c); err != nil {
			return nil, err
		}
	}
	// Override and interface-conformance checks.
	for _, c := range order {
		if err := h.checkOverrides(c); err != nil {
			return nil, err
		}
	}
	return h, nil
}

func sortedIfaceNames(m map[string]*Iface) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func topoOrder(h *Hierarchy, decls map[string]*ClassDecl) ([]*Class, error) {
	var order []*Class
	state := make(map[*Class]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(c *Class) error
	visit = func(c *Class) error {
		switch state[c] {
		case 1:
			return fmt.Errorf("inheritance cycle involving class %s", c.Name)
		case 2:
			return nil
		}
		state[c] = 1
		if c.Super != nil {
			if err := visit(c.Super); err != nil {
				return err
			}
		}
		state[c] = 2
		order = append(order, c)
		return nil
	}
	for _, name := range sortedClassNames(decls) {
		if err := visit(h.Classes[name]); err != nil {
			return nil, err
		}
	}
	return order, nil
}

func (h *Hierarchy) resolveSig(md *MethodDecl) (*Method, error) {
	m := &Method{
		Name: md.Name, Static: md.Static, IsCtor: md.IsCtor, Decl: md,
	}
	for _, p := range md.Params {
		t, err := h.typeOf(p.Type)
		if err != nil {
			return nil, err
		}
		if t == VoidType {
			return nil, fmt.Errorf("%s: void parameter", p.Pos)
		}
		m.Params = append(m.Params, t)
		m.ParamNames = append(m.ParamNames, p.Name)
	}
	ret, err := h.typeOf(md.Ret)
	if err != nil {
		return nil, err
	}
	m.Ret = ret
	return m, nil
}

func (h *Hierarchy) resolveMembers(c *Class) error {
	d := c.Decl
	// Fields. Layout: superclass fields first; each field aligned to its
	// size. The resulting offsets are shared between heap objects and page
	// records.
	off := 0
	if c.Super != nil {
		c.AllFields = append(c.AllFields, c.Super.AllFields...)
		off = c.Super.BodySize
	}
	seen := make(map[string]bool)
	for _, fd := range d.Fields {
		if seen[fd.Name] {
			return fmt.Errorf("%s: duplicate field %s in class %s", fd.Pos, fd.Name, c.Name)
		}
		seen[fd.Name] = true
		t, err := h.typeOf(fd.Type)
		if err != nil {
			return err
		}
		if t == VoidType {
			return fmt.Errorf("%s: void field", fd.Pos)
		}
		f := &Field{Name: fd.Name, Type: t, Owner: c, Static: fd.Static}
		if fd.Static {
			f.StaticIndex = h.NumStatics
			h.NumStatics++
			c.Statics = append(c.Statics, f)
			continue
		}
		if c.FindField(fd.Name) != nil {
			return fmt.Errorf("%s: field %s shadows a superclass field", fd.Pos, fd.Name)
		}
		sz := t.FieldSize()
		off = align(off, sz)
		f.Offset = off
		off += sz
		c.Fields = append(c.Fields, f)
		c.AllFields = append(c.AllFields, f)
	}
	c.BodySize = align(off, 8)

	// Methods.
	for _, md := range d.Methods {
		if _, dup := c.Methods[md.Name]; dup {
			return fmt.Errorf("%s: duplicate method %s in class %s", md.Pos, md.Name, c.Name)
		}
		m, err := h.resolveSig(md)
		if err != nil {
			return err
		}
		m.Owner = c
		c.Methods[md.Name] = m
	}
	if d.Ctor != nil {
		m, err := h.resolveSig(d.Ctor)
		if err != nil {
			return err
		}
		m.Owner = c
		m.Ret = VoidType
		c.Ctor = m
	}
	return nil
}

func align(off, sz int) int {
	if sz <= 1 {
		return off
	}
	rem := off % sz
	if rem != 0 {
		off += sz - rem
	}
	return off
}

func sameSig(a, b *Method) bool {
	if len(a.Params) != len(b.Params) || !a.Ret.Equals(b.Ret) {
		return false
	}
	for i := range a.Params {
		if !a.Params[i].Equals(b.Params[i]) {
			return false
		}
	}
	return true
}

func (h *Hierarchy) checkOverrides(c *Class) error {
	for name, m := range c.Methods {
		if c.Super == nil {
			continue
		}
		if sup := c.Super.Resolve(name); sup != nil {
			if m.Static != sup.Static {
				return fmt.Errorf("method %s.%s changes staticness of inherited method", c.Name, name)
			}
			if !m.Static && !sameSig(m, sup) {
				return fmt.Errorf("method %s.%s overrides %s with a different signature", c.Name, name, sup.Sig())
			}
		}
	}
	for _, iface := range c.Ifaces {
		for name, im := range iface.Methods {
			impl := c.Resolve(name)
			if impl == nil {
				return fmt.Errorf("class %s does not implement %s.%s", c.Name, iface.Name, name)
			}
			if impl.Static {
				return fmt.Errorf("class %s implements %s.%s with a static method", c.Name, iface.Name, name)
			}
			if !sameSig(impl, im) {
				return fmt.Errorf("class %s implements %s.%s with a different signature", c.Name, iface.Name, name)
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Body checking

// Check type-checks every method body in the hierarchy, annotating the AST
// with types and resolved members.
func Check(h *Hierarchy) error {
	for _, c := range h.ClassList {
		if c.Ctor != nil {
			if err := h.checkBody(c, c.Ctor); err != nil {
				return err
			}
		}
		names := make([]string, 0, len(c.Methods))
		for n := range c.Methods {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if err := h.checkBody(c, c.Methods[n]); err != nil {
				return err
			}
		}
	}
	return nil
}

// scope is a lexical scope of local variables.
type scope struct {
	parent *scope
	vars   map[string]*Type
}

func (s *scope) lookup(name string) *Type {
	for x := s; x != nil; x = x.parent {
		if t, ok := x.vars[name]; ok {
			return t
		}
	}
	return nil
}

func (s *scope) declare(name string, t *Type) bool {
	if _, dup := s.vars[name]; dup {
		return false
	}
	s.vars[name] = t
	return true
}

type checker struct {
	h       *Hierarchy
	cls     *Class
	method  *Method
	loop    int
	hasThis bool
}

func (h *Hierarchy) checkBody(c *Class, m *Method) error {
	if m.Decl == nil || m.Decl.Body == nil {
		return nil
	}
	ck := &checker{h: h, cls: c, method: m, hasThis: !m.Static}
	sc := &scope{vars: make(map[string]*Type)}
	for i, pn := range m.ParamNames {
		if !sc.declare(pn, m.Params[i]) {
			return fmt.Errorf("%s: duplicate parameter %s", m.Decl.Pos, pn)
		}
	}
	return ck.stmt(m.Decl.Body, sc)
}

func (ck *checker) errf(p Pos, format string, args ...any) error {
	return fmt.Errorf("%s: in %s: %s", p, ck.method.Sig(), fmt.Sprintf(format, args...))
}

func (ck *checker) stmt(s Stmt, sc *scope) error {
	switch st := s.(type) {
	case *BlockStmt:
		inner := &scope{parent: sc, vars: make(map[string]*Type)}
		for _, x := range st.Stmts {
			if err := ck.stmt(x, inner); err != nil {
				return err
			}
		}
		return nil
	case *VarDeclStmt:
		t, err := ck.h.typeOf(st.Type)
		if err != nil {
			return err
		}
		if t == VoidType {
			return ck.errf(st.Pos, "void variable %s", st.Name)
		}
		st.T = t
		if st.Init != nil {
			it, err := ck.expr(st.Init, sc)
			if err != nil {
				return err
			}
			coerced, err := ck.coerce(st.Init, it, t)
			if err != nil {
				return ck.errf(st.Pos, "cannot initialize %s %s with %s", t, st.Name, it)
			}
			st.Init = coerced
		}
		if !sc.declare(st.Name, t) {
			return ck.errf(st.Pos, "duplicate local %s", st.Name)
		}
		return nil
	case *AssignStmt:
		tt, err := ck.lvalue(st.Target, sc)
		if err != nil {
			return err
		}
		vt, err := ck.expr(st.Value, sc)
		if err != nil {
			return err
		}
		coerced, err := ck.coerce(st.Value, vt, tt)
		if err != nil {
			return ck.errf(st.Pos, "cannot assign %s to %s", vt, tt)
		}
		st.Value = coerced
		return nil
	case *IfStmt:
		if err := ck.boolCond(st.Cond, sc); err != nil {
			return err
		}
		if err := ck.stmt(st.Then, sc); err != nil {
			return err
		}
		if st.Else != nil {
			return ck.stmt(st.Else, sc)
		}
		return nil
	case *WhileStmt:
		if err := ck.boolCond(st.Cond, sc); err != nil {
			return err
		}
		ck.loop++
		defer func() { ck.loop-- }()
		return ck.stmt(st.Body, sc)
	case *ForStmt:
		inner := &scope{parent: sc, vars: make(map[string]*Type)}
		if st.Init != nil {
			if err := ck.stmt(st.Init, inner); err != nil {
				return err
			}
		}
		if st.Cond != nil {
			if err := ck.boolCond(st.Cond, inner); err != nil {
				return err
			}
		}
		if st.Post != nil {
			if err := ck.stmt(st.Post, inner); err != nil {
				return err
			}
		}
		ck.loop++
		defer func() { ck.loop-- }()
		return ck.stmt(st.Body, inner)
	case *ReturnStmt:
		want := ck.method.Ret
		if st.Value == nil {
			if want != VoidType {
				return ck.errf(st.Pos, "missing return value (want %s)", want)
			}
			return nil
		}
		if want == VoidType {
			return ck.errf(st.Pos, "returning a value from a void method")
		}
		vt, err := ck.expr(st.Value, sc)
		if err != nil {
			return err
		}
		coerced, err := ck.coerce(st.Value, vt, want)
		if err != nil {
			return ck.errf(st.Pos, "cannot return %s as %s", vt, want)
		}
		st.Value = coerced
		return nil
	case *BreakStmt:
		if ck.loop == 0 {
			return ck.errf(st.Pos, "break outside loop")
		}
		return nil
	case *ContinueStmt:
		if ck.loop == 0 {
			return ck.errf(st.Pos, "continue outside loop")
		}
		return nil
	case *ExprStmt:
		_, err := ck.expr(st.X, sc)
		return err
	case *SyncStmt:
		lt, err := ck.expr(st.Lock, sc)
		if err != nil {
			return err
		}
		if !lt.IsRef() || lt.Kind == TNull {
			return ck.errf(st.Pos, "synchronized lock must be a reference, got %s", lt)
		}
		return ck.stmt(st.Body, sc)
	}
	return fmt.Errorf("unhandled statement %T", s)
}

func (ck *checker) boolCond(e Expr, sc *scope) error {
	t, err := ck.expr(e, sc)
	if err != nil {
		return err
	}
	if t != BoolType {
		return fmt.Errorf("condition must be boolean, got %s", t)
	}
	return nil
}

// lvalue checks an assignment target and returns its type.
func (ck *checker) lvalue(e Expr, sc *scope) (*Type, error) {
	switch t := e.(type) {
	case *IdentExpr:
		return ck.expr(e, sc)
	case *FieldExpr:
		tt, err := ck.expr(e, sc)
		if err != nil {
			return nil, err
		}
		if t.IsLen {
			return nil, ck.errf(t.Pos, "cannot assign to array length")
		}
		return tt, nil
	case *IndexExpr:
		return ck.expr(e, sc)
	}
	return nil, fmt.Errorf("invalid assignment target %T", e)
}

// numericRank orders numeric types for widening: byte < int < long < double.
func numericRank(t *Type) int {
	switch t.Kind {
	case TByte:
		return 0
	case TInt:
		return 1
	case TLong:
		return 2
	case TDouble:
		return 3
	}
	return -1
}

// coerce checks that a value of type src can flow into a slot of type dst,
// wrapping e in a synthetic widening cast when a numeric conversion is
// needed. It returns the (possibly wrapped) expression.
func (ck *checker) coerce(e Expr, src, dst *Type) (Expr, error) {
	if src.Equals(dst) {
		return e, nil
	}
	if src.IsNumeric() && dst.IsNumeric() && numericRank(src) < numericRank(dst) {
		c := &CastExpr{Pos: Pos{}, X: e, TargetT: dst}
		c.setType(dst)
		return c, nil
	}
	if dst.IsRef() && src.Kind == TNull {
		return e, nil
	}
	if ck.h.assignableRef(dst, src) {
		return e, nil
	}
	return nil, fmt.Errorf("type mismatch %s -> %s", src, dst)
}

func (ck *checker) expr(e Expr, sc *scope) (*Type, error) {
	t, err := ck.exprInner(e, sc)
	if err != nil {
		return nil, err
	}
	e.setType(t)
	return t, nil
}

func (ck *checker) exprInner(e Expr, sc *scope) (*Type, error) {
	switch x := e.(type) {
	case *IntLit:
		return IntType, nil
	case *LongLit:
		return LongType, nil
	case *DoubleLit:
		return DoubleType, nil
	case *BoolLit:
		return BoolType, nil
	case *NullLit:
		return NullType, nil
	case *StringLit:
		if ck.h.String == nil {
			return nil, ck.errf(x.Pos, "string literal requires a String class")
		}
		return ClassType("String"), nil
	case *ThisExpr:
		if !ck.hasThis {
			return nil, ck.errf(x.Pos, "this in static context")
		}
		return ClassType(ck.cls.Name), nil
	case *IdentExpr:
		if t := sc.lookup(x.Name); t != nil {
			return t, nil
		}
		return nil, ck.errf(x.Pos, "unknown variable %s", x.Name)
	case *FieldExpr:
		return ck.fieldExpr(x, sc)
	case *IndexExpr:
		at, err := ck.expr(x.X, sc)
		if err != nil {
			return nil, err
		}
		if at.Kind != TArray {
			return nil, ck.errf(x.Pos, "indexing non-array type %s", at)
		}
		it, err := ck.expr(x.Index, sc)
		if err != nil {
			return nil, err
		}
		if !it.IsIntegral() || it.Kind == TLong {
			return nil, ck.errf(x.Pos, "array index must be int, got %s", it)
		}
		return at.Elem, nil
	case *CallExpr:
		return ck.callExpr(x, sc)
	case *NewExpr:
		return ck.newExpr(x, sc)
	case *NewArrayExpr:
		et, err := ck.h.typeOf(x.Elem)
		if err != nil {
			return nil, err
		}
		x.ElemT = et
		lt, err := ck.expr(x.Len, sc)
		if err != nil {
			return nil, err
		}
		if lt != IntType && lt != ByteType {
			return nil, ck.errf(x.Pos, "array length must be int, got %s", lt)
		}
		return ArrayOf(et), nil
	case *UnaryExpr:
		t, err := ck.expr(x.X, sc)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case TokMinus:
			if !t.IsNumeric() {
				return nil, ck.errf(x.Pos, "negating non-numeric %s", t)
			}
			if t.Kind == TByte {
				return IntType, nil
			}
			return t, nil
		case TokNot:
			if t != BoolType {
				return nil, ck.errf(x.Pos, "! on non-boolean %s", t)
			}
			return BoolType, nil
		}
		return nil, ck.errf(x.Pos, "bad unary operator")
	case *BinaryExpr:
		return ck.binaryExpr(x, sc)
	case *InstanceOfExpr:
		t, err := ck.expr(x.X, sc)
		if err != nil {
			return nil, err
		}
		if !t.IsRef() {
			return nil, ck.errf(x.Pos, "instanceof on non-reference %s", t)
		}
		tt, err := ck.h.typeOf(x.Target)
		if err != nil {
			return nil, err
		}
		if !tt.IsRef() {
			return nil, ck.errf(x.Pos, "instanceof target must be a reference type")
		}
		x.TargetT = tt
		return BoolType, nil
	case *CastExpr:
		t, err := ck.expr(x.X, sc)
		if err != nil {
			return nil, err
		}
		if x.TargetT == nil {
			tt, err := ck.h.typeOf(x.Target)
			if err != nil {
				return nil, err
			}
			x.TargetT = tt
		}
		tt := x.TargetT
		if t.IsNumeric() && tt.IsNumeric() {
			return tt, nil
		}
		if t.IsRef() && tt.IsRef() && tt.Kind != TNull {
			return tt, nil
		}
		return nil, ck.errf(x.Pos, "invalid cast from %s to %s", t, tt)
	}
	return nil, fmt.Errorf("unhandled expression %T", e)
}

func (ck *checker) fieldExpr(x *FieldExpr, sc *scope) (*Type, error) {
	// Static field: ClassName.field where ClassName is not a local.
	if id, ok := x.X.(*IdentExpr); ok && sc.lookup(id.Name) == nil {
		cls := ck.h.Class(id.Name)
		if cls == nil {
			return nil, ck.errf(x.Pos, "unknown variable or class %s", id.Name)
		}
		f := cls.FindStatic(x.Name)
		if f == nil {
			return nil, ck.errf(x.Pos, "class %s has no static field %s", id.Name, x.Name)
		}
		x.ClassName = id.Name
		x.X = nil
		x.Resolved = f
		return f.Type, nil
	}
	rt, err := ck.expr(x.X, sc)
	if err != nil {
		return nil, err
	}
	if rt.Kind == TArray {
		if x.Name != "length" {
			return nil, ck.errf(x.Pos, "arrays have no field %s", x.Name)
		}
		x.IsLen = true
		return IntType, nil
	}
	if rt.Kind != TClass {
		return nil, ck.errf(x.Pos, "field access on non-class type %s", rt)
	}
	cls := ck.h.Class(rt.Name)
	f := cls.FindField(x.Name)
	if f == nil {
		return nil, ck.errf(x.Pos, "class %s has no field %s", rt.Name, x.Name)
	}
	x.Resolved = f
	return f.Type, nil
}

func (ck *checker) checkArgs(pos Pos, m *Method, args []Expr, sc *scope) ([]Expr, error) {
	if len(args) != len(m.Params) {
		return nil, ck.errf(pos, "%s expects %d arguments, got %d", m.Sig(), len(m.Params), len(args))
	}
	out := make([]Expr, len(args))
	for i, a := range args {
		at, err := ck.expr(a, sc)
		if err != nil {
			return nil, err
		}
		c, err := ck.coerce(a, at, m.Params[i])
		if err != nil {
			return nil, ck.errf(pos, "argument %d of %s: cannot pass %s as %s", i+1, m.Sig(), at, m.Params[i])
		}
		out[i] = c
	}
	return out, nil
}

func (ck *checker) callExpr(x *CallExpr, sc *scope) (*Type, error) {
	// Rewrite Ident receivers that are class names into static calls.
	if id, ok := x.Recv.(*IdentExpr); ok && sc.lookup(id.Name) == nil {
		x.ClassName = id.Name
		x.Recv = nil
	}
	if x.ClassName == "Sys" {
		return ck.sysCall(x, sc)
	}
	if x.ClassName != "" {
		cls := ck.h.Class(x.ClassName)
		if cls == nil {
			return nil, ck.errf(x.Pos, "unknown variable or class %s", x.ClassName)
		}
		var m *Method
		for c := cls; c != nil; c = c.Super {
			if mm, ok := c.Methods[x.Method]; ok {
				m = mm
				break
			}
		}
		if m == nil || !m.Static {
			return nil, ck.errf(x.Pos, "class %s has no static method %s", x.ClassName, x.Method)
		}
		args, err := ck.checkArgs(x.Pos, m, x.Args, sc)
		if err != nil {
			return nil, err
		}
		x.Args = args
		x.Resolved = m
		return m.Ret, nil
	}
	rt, err := ck.expr(x.Recv, sc)
	if err != nil {
		return nil, err
	}
	var m *Method
	switch rt.Kind {
	case TClass:
		m = ck.h.Class(rt.Name).Resolve(x.Method)
	case TIface:
		m = ck.h.Iface(rt.Name).LookupIfaceMethod(x.Method)
	case TArray:
		return nil, ck.errf(x.Pos, "method call on array type %s", rt)
	default:
		return nil, ck.errf(x.Pos, "method call on non-reference %s", rt)
	}
	if m == nil {
		return nil, ck.errf(x.Pos, "type %s has no method %s", rt, x.Method)
	}
	if m.Static {
		return nil, ck.errf(x.Pos, "instance call to static method %s", m.Sig())
	}
	args, err := ck.checkArgs(x.Pos, m, x.Args, sc)
	if err != nil {
		return nil, err
	}
	x.Args = args
	x.Resolved = m
	return m.Ret, nil
}

// sysCall checks builtin Sys.* intrinsics.
func (ck *checker) sysCall(x *CallExpr, sc *scope) (*Type, error) {
	argTypes := make([]*Type, len(x.Args))
	for i, a := range x.Args {
		t, err := ck.expr(a, sc)
		if err != nil {
			return nil, err
		}
		argTypes[i] = t
	}
	need := func(n int) error {
		if len(x.Args) != n {
			return ck.errf(x.Pos, "Sys.%s expects %d arguments, got %d", x.Method, n, len(x.Args))
		}
		return nil
	}
	x.Intrinsic = x.Method
	switch x.Method {
	case "print", "println":
		if err := need(1); err != nil {
			return nil, err
		}
		return VoidType, nil
	case "sqrt", "abs", "exp", "log":
		if err := need(1); err != nil {
			return nil, err
		}
		c, err := ck.coerce(x.Args[0], argTypes[0], DoubleType)
		if err != nil {
			return nil, ck.errf(x.Pos, "Sys.%s needs a double argument", x.Method)
		}
		x.Args[0] = c
		return DoubleType, nil
	case "rand":
		if err := need(1); err != nil {
			return nil, err
		}
		if argTypes[0] != IntType {
			return nil, ck.errf(x.Pos, "Sys.rand needs an int bound")
		}
		return IntType, nil
	case "arraycopy":
		if err := need(5); err != nil {
			return nil, err
		}
		if argTypes[0].Kind != TArray || !argTypes[0].Equals(argTypes[2]) {
			return nil, ck.errf(x.Pos, "Sys.arraycopy needs two arrays of the same type")
		}
		for _, i := range []int{1, 3, 4} {
			if argTypes[i] != IntType {
				return nil, ck.errf(x.Pos, "Sys.arraycopy positions must be int")
			}
		}
		return VoidType, nil
	case "fillNew":
		if err := ck.fillNew(x, argTypes); err != nil {
			return nil, err
		}
		return VoidType, nil
	case "release":
		// §3.6: hint that a large (oversize-paged) data structure is dead
		// before its iteration ends — e.g. the old array after a resize.
		// No-op in P; early oversize-page release in P'.
		if err := need(1); err != nil {
			return nil, err
		}
		if !argTypes[0].IsRef() {
			return nil, ck.errf(x.Pos, "Sys.release needs a reference")
		}
		return VoidType, nil
	case "iterStart", "iterEnd":
		// Iteration markers (§3.6): no-ops in P, page-manager push/pop in
		// P'. Frameworks usually place these from the control path; data
		// code may also mark nested iterations directly.
		if err := need(0); err != nil {
			return nil, err
		}
		return VoidType, nil
	}
	return nil, ck.errf(x.Pos, "unknown builtin Sys.%s", x.Method)
}

// fillNew checks Sys.fillNew(C[] dst, int from, col_1, ..., col_k), §3.5's
// conversion at the interaction point done in bulk: dst[i] becomes a new C
// whose j-th instance field (AllFields order) is col_j[from+i]. Every field
// of C is primitive, and column j is an array of exactly field j's type.
func (ck *checker) fillNew(x *CallExpr, argTypes []*Type) error {
	if len(argTypes) < 2 {
		return ck.errf(x.Pos, "Sys.fillNew expects a destination array, a start position and one column per field")
	}
	dt := argTypes[0]
	if dt.Kind != TArray || dt.Elem.Kind != TClass {
		return ck.errf(x.Pos, "Sys.fillNew needs an array of a class, got %s", dt)
	}
	cls := ck.h.Class(dt.Elem.Name)
	if argTypes[1] != IntType {
		return ck.errf(x.Pos, "Sys.fillNew start position must be int")
	}
	if cols := len(argTypes) - 2; cols != len(cls.AllFields) {
		return ck.errf(x.Pos, "Sys.fillNew of %s needs %d columns, one per field, got %d", cls.Name, len(cls.AllFields), cols)
	}
	for j, f := range cls.AllFields {
		if f.Type.IsRef() {
			return ck.errf(x.Pos, "Sys.fillNew of %s: field %s is a reference; every field must be primitive", cls.Name, f.Name)
		}
		if want := ArrayOf(f.Type); !argTypes[2+j].Equals(want) {
			return ck.errf(x.Pos, "Sys.fillNew of %s: column %d (field %s) must be %s, got %s", cls.Name, j+1, f.Name, want, argTypes[2+j])
		}
	}
	return nil
}

func (ck *checker) newExpr(x *NewExpr, sc *scope) (*Type, error) {
	cls := ck.h.Class(x.Class)
	if cls == nil {
		if ck.h.Iface(x.Class) != nil {
			return nil, ck.errf(x.Pos, "cannot instantiate interface %s", x.Class)
		}
		return nil, ck.errf(x.Pos, "unknown class %s", x.Class)
	}
	x.Cls = cls
	if cls.Ctor == nil {
		if len(x.Args) != 0 {
			return nil, ck.errf(x.Pos, "class %s has no constructor but arguments were given", x.Class)
		}
		return ClassType(x.Class), nil
	}
	args, err := ck.checkArgs(x.Pos, cls.Ctor, x.Args, sc)
	if err != nil {
		return nil, err
	}
	x.Args = args
	x.Ctor = cls.Ctor
	return ClassType(x.Class), nil
}

func (ck *checker) binaryExpr(x *BinaryExpr, sc *scope) (*Type, error) {
	lt, err := ck.expr(x.X, sc)
	if err != nil {
		return nil, err
	}
	rt, err := ck.expr(x.Y, sc)
	if err != nil {
		return nil, err
	}
	promote := func() (*Type, error) {
		if !lt.IsNumeric() || !rt.IsNumeric() {
			return nil, ck.errf(x.Pos, "operator %s needs numeric operands, got %s and %s", x.Op, lt, rt)
		}
		r := numericRank(lt)
		if numericRank(rt) > r {
			r = numericRank(rt)
		}
		if r < 1 {
			r = 1 // byte op byte promotes to int, as in Java
		}
		var t *Type
		switch r {
		case 1:
			t = IntType
		case 2:
			t = LongType
		default:
			t = DoubleType
		}
		cx, err := ck.coerce(x.X, lt, t)
		if err != nil {
			return nil, err
		}
		cy, err := ck.coerce(x.Y, rt, t)
		if err != nil {
			return nil, err
		}
		x.X, x.Y = cx, cy
		return t, nil
	}
	switch x.Op {
	case TokPlus, TokMinus, TokStar, TokSlash:
		return promote()
	case TokPercent:
		t, err := promote()
		if err != nil {
			return nil, err
		}
		if t == DoubleType {
			return nil, ck.errf(x.Pos, "%% needs integral operands")
		}
		return t, nil
	case TokAnd, TokOr, TokCaret:
		t, err := promote()
		if err != nil {
			return nil, err
		}
		if t == DoubleType {
			return nil, ck.errf(x.Pos, "bitwise operator needs integral operands")
		}
		return t, nil
	case TokShl, TokShr:
		if !lt.IsIntegral() || !rt.IsIntegral() || rt.Kind == TLong {
			return nil, ck.errf(x.Pos, "shift needs integral operands with int shift count")
		}
		if lt.Kind == TByte {
			c, _ := ck.coerce(x.X, lt, IntType)
			x.X = c
			return IntType, nil
		}
		return lt, nil
	case TokLt, TokLe, TokGt, TokGe:
		if _, err := promote(); err != nil {
			return nil, err
		}
		return BoolType, nil
	case TokEq, TokNe:
		if lt.IsNumeric() && rt.IsNumeric() {
			if _, err := promote(); err != nil {
				return nil, err
			}
			return BoolType, nil
		}
		if lt == BoolType && rt == BoolType {
			return BoolType, nil
		}
		if lt.IsRef() && rt.IsRef() {
			return BoolType, nil
		}
		return nil, ck.errf(x.Pos, "cannot compare %s and %s", lt, rt)
	case TokAndAnd, TokOrOr:
		if lt != BoolType || rt != BoolType {
			return nil, ck.errf(x.Pos, "logical operator needs boolean operands")
		}
		return BoolType, nil
	}
	return nil, ck.errf(x.Pos, "bad binary operator %s", x.Op)
}
