package core

import (
	"fmt"
	"slices"

	"repro/internal/ir"
	"repro/internal/lang"
)

// mapType rewrites a data-path type for P' (§3.2): data classes become
// their facade classes, data interfaces their IFacade twins, Object the
// Facade base, and every array type a raw 64-bit page reference.
func (tr *transformer) mapType(t *lang.Type) *lang.Type {
	switch t.Kind {
	case lang.TArray:
		return lang.LongType
	case lang.TClass:
		if t.Name == "Object" {
			return lang.ClassType("Facade")
		}
		if tr.data[t.Name] {
			return lang.ClassType(ir.FacadeName(t.Name))
		}
	case lang.TIface:
		if tr.dataIf[t.Name] {
			return lang.IfaceType(ir.FacadeName(t.Name))
		}
	}
	return t
}

// refType rewrites the type of a register that holds a data value inside a
// transformed body: a 64-bit page reference.
func refType(t *lang.Type) *lang.Type { return lang.LongType }

// buildHierarchy assembles P”s class world: all original classes (shared,
// for the control path), the Facade base class, one facade class per data
// class, IFacade twins for interfaces implemented by data classes, and the
// FacadeBridge owner of conversion functions.
func (tr *transformer) buildHierarchy() error {
	old := tr.p.H
	nh := &lang.Hierarchy{
		Classes:    make(map[string]*lang.Class, len(old.Classes)*2),
		Ifaces:     make(map[string]*lang.Iface, len(old.Ifaces)*2),
		Object:     old.Object,
		String:     old.String,
		NumStatics: old.NumStatics,
	}
	for name, c := range old.Classes {
		nh.Classes[name] = c
	}
	nh.ClassList = append(nh.ClassList, old.ClassList...)
	for name, i := range old.Ifaces {
		nh.Ifaces[name] = i
	}
	nh.IfaceList = append(nh.IfaceList, old.IfaceList...)
	tr.newH = nh
	tr.facades = make(map[string]*lang.Class)
	tr.ifaces = make(map[string]*lang.Iface)
	tr.newStatics = make(map[*lang.Field]*lang.Field)

	addClass := func(c *lang.Class) error {
		if _, dup := nh.Classes[c.Name]; dup {
			return fmt.Errorf("facade: generated class %s collides with an existing class", c.Name)
		}
		c.ID = len(nh.ClassList)
		if c.ID >= 1<<14 {
			return fmt.Errorf("facade: too many classes for 2-byte record type IDs")
		}
		nh.Classes[c.Name] = c
		nh.ClassList = append(nh.ClassList, c)
		return nil
	}

	// The Facade base class: one long field pageRef, plus Object's methods
	// transformed for record semantics.
	fb := &lang.Class{
		Name:    "Facade",
		Super:   old.Object,
		Methods: make(map[string]*lang.Method),
	}
	pageRef := &lang.Field{Name: "pageRef", Type: lang.LongType, Owner: fb, Offset: 0}
	fb.Fields = []*lang.Field{pageRef}
	fb.AllFields = []*lang.Field{pageRef}
	fb.BodySize = 8
	fb.Methods["hashCode"] = &lang.Method{Name: "hashCode", Owner: fb, Ret: lang.IntType}
	fb.Methods["equals"] = &lang.Method{
		Name: "equals", Owner: fb,
		Params:     []*lang.Type{lang.ClassType("Facade")},
		ParamNames: []string{"o"},
		Ret:        lang.BoolType,
	}
	if err := addClass(fb); err != nil {
		return err
	}
	tr.facadeBase = fb
	tr.facades["Object"] = fb

	// IFacade twins for interfaces implemented by data classes.
	for _, iname := range sortedKeys(tr.dataIf) {
		oldIf := old.Iface(iname)
		if oldIf == nil {
			continue
		}
		ni := &lang.Iface{Name: ir.FacadeName(iname), Methods: make(map[string]*lang.Method)}
		for mn, m := range oldIf.Methods {
			ni.Methods[mn] = tr.mapMethod(m, nil, ni)
		}
		if _, dup := nh.Ifaces[ni.Name]; dup {
			return fmt.Errorf("facade: generated interface %s collides", ni.Name)
		}
		nh.Ifaces[ni.Name] = ni
		nh.IfaceList = append(nh.IfaceList, ni)
		tr.ifaces[iname] = ni
	}

	// Facade classes, supers before subs (original ClassList is
	// topologically ordered).
	for _, c := range old.ClassList {
		if !tr.data[c.Name] {
			continue
		}
		fc := &lang.Class{
			Name:    ir.FacadeName(c.Name),
			Methods: make(map[string]*lang.Method),
		}
		if c.Super != nil && tr.data[c.Super.Name] {
			fc.Super = tr.facades[c.Super.Name]
		} else {
			fc.Super = fb
		}
		fc.AllFields = fc.Super.AllFields
		fc.BodySize = fc.Super.BodySize
		for _, oi := range c.Ifaces {
			if ni := tr.ifaces[oi.Name]; ni != nil {
				fc.Ifaces = append(fc.Ifaces, ni)
			}
		}
		// Static fields move to the facade class; data-typed statics
		// become page references (longs).
		for _, sf := range c.Statics {
			nf := &lang.Field{
				Name:   sf.Name,
				Type:   tr.staticType(sf.Type),
				Owner:  fc,
				Static: true,
			}
			nf.StaticIndex = nh.NumStatics
			nh.NumStatics++
			fc.Statics = append(fc.Statics, nf)
			tr.newStatics[sf] = nf
		}
		for mn, m := range c.Methods {
			fc.Methods[mn] = tr.mapMethod(m, fc, nil)
		}
		if c.Ctor != nil {
			fc.Ctor = tr.mapMethod(c.Ctor, fc, nil)
		}
		if err := addClass(fc); err != nil {
			return err
		}
		tr.facades[c.Name] = fc
	}

	// FacadeBridge: owner class for synthesized conversion functions.
	br := &lang.Class{
		Name:    "FacadeBridge",
		Super:   old.Object,
		Methods: make(map[string]*lang.Method),
	}
	if err := addClass(br); err != nil {
		return err
	}
	tr.bridge = br
	return nil
}

// staticType maps a static field's type: data references become raw page
// references.
func (tr *transformer) staticType(t *lang.Type) *lang.Type {
	if tr.isDataType(t) {
		return lang.LongType
	}
	return t
}

// mapMethod builds the facade-signature twin of a data-path method:
// data-class parameters become facade parameters, data arrays become raw
// longs (§2.2, transformation 2).
func (tr *transformer) mapMethod(m *lang.Method, owner *lang.Class, ownerIf *lang.Iface) *lang.Method {
	nm := &lang.Method{
		Name:       m.Name,
		Owner:      owner,
		OwnerIface: ownerIf,
		Static:     m.Static,
		IsCtor:     m.IsCtor,
		ParamNames: m.ParamNames,
		Ret:        tr.mapType(m.Ret),
	}
	for _, pt := range m.Params {
		nm.Params = append(nm.Params, tr.mapType(pt))
	}
	return nm
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// ---------------------------------------------------------------------------
// Program assembly

// buildProgram creates P': deep copies of all original functions (the
// control path keeps running on heap objects), transformed facade twins
// for every data-class method, the synthesized Facade base methods, and
// conversion functions.
func (tr *transformer) buildProgram() error {
	// Room for the copies, the two base methods and the twins; conversion
	// functions come on top.
	n := len(tr.p.FuncList) + 2
	for _, c := range tr.p.H.ClassList {
		if tr.data[c.Name] {
			n += len(c.Methods)
			if c.Ctor != nil {
				n++
			}
		}
	}
	out := &ir.Program{
		H:           tr.newH,
		Funcs:       make(map[string]*ir.Func, n),
		FuncList:    make([]*ir.Func, 0, n),
		StringPool:  append([]string(nil), tr.p.StringPool...),
		Transformed: true,
		Bounds:      tr.bounds,
		DataClasses: tr.data,
		NumSites:    tr.p.NumSites,
	}
	tr.out = out
	tr.convFrom = make(map[string]*ir.Func)
	tr.convTo = make(map[string]*ir.Func)
	tr.convFromArr = make(map[string]*ir.Func)
	tr.convToArr = make(map[string]*ir.Func)

	// Control path: verbatim copies. P′ cannot share P's functions because
	// dead-code elimination and the inliner edit P′'s instructions in place.
	for _, f := range tr.p.FuncList {
		out.AddFunc(f.Clone())
	}
	// Facade base methods.
	out.AddFunc(tr.synthFacadeHashCode())
	out.AddFunc(tr.synthFacadeEquals())

	// Data path: transformed twins.
	for _, c := range tr.p.H.ClassList {
		if !tr.data[c.Name] {
			continue
		}
		fc := tr.facades[c.Name]
		if c.Ctor != nil {
			nf, err := tr.transformBody(tr.p.Funcs[ir.CtorKey(c.Name)], fc, fc.Ctor, ir.CtorKey(fc.Name))
			if err != nil {
				return err
			}
			out.AddFunc(nf)
		}
		for _, mn := range sortedKeys(c.Methods) {
			nf, err := tr.transformBody(tr.p.Funcs[ir.FuncKey(c.Name, mn)], fc, fc.Methods[mn], ir.FuncKey(fc.Name, mn))
			if err != nil {
				return err
			}
			out.AddFunc(nf)
		}
	}
	// Flush conversion-function synthesis (may enqueue more).
	for len(tr.convQueue) > 0 {
		q := tr.convQueue
		tr.convQueue = nil
		for _, gen := range q {
			if err := gen(); err != nil {
				return err
			}
		}
	}
	return nil
}

// synthFacadeHashCode emits Facade.hashCode, the record twin of
// Object.hashCode.
func (tr *transformer) synthFacadeHashCode() *ir.Func {
	fb := tr.facadeBase
	f := &ir.Func{
		Name:      ir.FuncKey("Facade", "hashCode"),
		Class:     fb,
		Method:    fb.Methods["hashCode"],
		Synthetic: true,
	}
	b := tr.newFuncBuilder(f)
	this := b.f.NewReg(lang.ClassType("Facade"))
	f.Params = []ir.Reg{this}
	zero := b.f.NewReg(lang.IntType)
	b.emit(ir.Instr{Op: ir.OpConst, Dst: zero, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, NumKind: ir.KInt, Type: lang.IntType})
	b.emit(ir.Instr{Op: ir.OpRet, Dst: ir.NoReg, A: zero, B: ir.NoReg, C: ir.NoReg})
	return b.finish()
}

// synthFacadeEquals emits Facade.equals: page-reference identity, the
// record twin of Object.equals.
func (tr *transformer) synthFacadeEquals() *ir.Func {
	fb := tr.facadeBase
	f := &ir.Func{
		Name:      ir.FuncKey("Facade", "equals"),
		Class:     fb,
		Method:    fb.Methods["equals"],
		Synthetic: true,
	}
	b := tr.newFuncBuilder(f)
	this := b.f.NewReg(lang.ClassType("Facade"))
	other := b.f.NewReg(lang.ClassType("Facade"))
	f.Params = []ir.Reg{this, other}
	pr := tr.facadeBase.Fields[0]
	tRef := b.f.NewReg(lang.LongType)
	oRef := b.f.NewReg(lang.LongType)
	b.emit(ir.Instr{Op: ir.OpLoad, Dst: tRef, A: this, B: ir.NoReg, C: ir.NoReg, Field: pr})
	b.emit(ir.Instr{Op: ir.OpLoad, Dst: oRef, A: other, B: ir.NoReg, C: ir.NoReg, Field: pr})
	eq := b.f.NewReg(lang.BoolType)
	b.emit(ir.Instr{Op: ir.OpBin, Sub: ir.BinEq, NumKind: ir.KLong, Dst: eq, A: tRef, B: oRef, C: ir.NoReg})
	b.emit(ir.Instr{Op: ir.OpRet, Dst: ir.NoReg, A: eq, B: ir.NoReg, C: ir.NoReg})
	return b.finish()
}

// funcBuilder is a minimal IR builder for synthesized functions. It emits
// through the transformer's emitter, so one function is built at a time,
// and finish gives the function its blocks and register types.
type funcBuilder struct {
	f   *ir.Func
	em  *ir.Emitter
	cur int
}

func (tr *transformer) newFuncBuilder(f *ir.Func) *funcBuilder {
	tr.em.Start(f)
	return &funcBuilder{f: f, em: &tr.em, cur: tr.em.NewBlock()}
}

func (b *funcBuilder) emit(in ir.Instr) { b.em.Emit(b.cur, in) }

// newBlock appends a block and makes it current.
func (b *funcBuilder) newBlock() int {
	b.cur = b.em.NewBlock()
	return b.cur
}

// numBlocks returns the number of blocks so far.
func (b *funcBuilder) numBlocks() int { return b.em.NumBlocks() }

// useBlock switches the current block.
func (b *funcBuilder) useBlock(id int) { b.cur = id }

// finish gives the function its blocks and register types.
func (b *funcBuilder) finish() *ir.Func { return b.em.Finish() }
