package core

import (
	"fmt"
	"strings"

	"repro/internal/ir"
	"repro/internal/lang"
)

// Conversion functions (§3.5). At every interaction point the transform
// inserts a call to a synthesized converter:
//
//	FacadeBridge.fromAny(Object) long   heap object graph -> page records
//	FacadeBridge.toAny(long) Object     page records -> heap object graph
//
// plus per-class workers from<C>/to<C> and per-array-type workers. The
// paper implements these with reflection; here they are generated IR that
// copies field-by-field using the shared class layout, recursing through
// reference fields. Cyclic object graphs are not supported at interaction
// points (data tuples crossing the boundary are trees in practice).

// emitConvertFrom emits dst(long) = fromX(src) for a heap value of static
// type t.
func (c *bodyCtx) emitConvertFrom(t *lang.Type, src, dst ir.Reg) error {
	var m *lang.Method
	var err error
	if t.Kind == lang.TArray {
		m, err = c.tr.convFromArrMethod(t)
	} else {
		m, err = c.tr.convFromAnyMethod()
	}
	if err != nil {
		return err
	}
	c.emit(ir.Instr{Op: ir.OpCallStatic, Dst: dst, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, M: m, Args: []ir.Reg{src}})
	return nil
}

// convertToTmp emits tmp(heap) = toX(src) for a record of original static
// type t and returns tmp.
func (c *bodyCtx) convertToTmp(t *lang.Type, src ir.Reg) (ir.Reg, error) {
	var m *lang.Method
	var err error
	var tmpType *lang.Type
	if t.Kind == lang.TArray {
		m, err = c.tr.convToArrMethod(t)
		tmpType = t
	} else {
		m, err = c.tr.convToAnyMethod()
		tmpType = lang.ClassType("Object")
	}
	if err != nil {
		return ir.NoReg, err
	}
	tmp := c.nf.NewReg(tmpType)
	c.emit(ir.Instr{Op: ir.OpCallStatic, Dst: tmp, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, M: m, Args: []ir.Reg{src}})
	return tmp, nil
}

func mangle(t *lang.Type) string {
	s := t.String()
	s = strings.ReplaceAll(s, "[]", "$A")
	return s
}

// bridgeMethod creates (once) a static method stub on FacadeBridge and a
// generator that fills in its body later (so mutually recursive
// converters can reference one another).
func (tr *transformer) bridgeMethod(name string, params []*lang.Type, ret *lang.Type, cache map[string]*ir.Func, key string, gen func(f *ir.Func) error) (*lang.Method, error) {
	if f, ok := cache[key]; ok {
		return f.Method, nil
	}
	m := &lang.Method{
		Name:       name,
		Owner:      tr.bridge,
		Static:     true,
		Params:     params,
		ParamNames: []string{"x"},
		Ret:        ret,
	}
	tr.bridge.Methods[name] = m
	f := &ir.Func{Name: ir.FuncKey("FacadeBridge", name), Class: tr.bridge, Method: m, Synthetic: true}
	cache[key] = f
	tr.convQueue = append(tr.convQueue, func() error {
		if err := gen(f); err != nil {
			return err
		}
		tr.out.AddFunc(f)
		return nil
	})
	return m, nil
}

// convFromAnyMethod returns the heap->record dispatcher.
func (tr *transformer) convFromAnyMethod() (*lang.Method, error) {
	return tr.bridgeMethod("fromAny", []*lang.Type{lang.ClassType("Object")}, lang.LongType,
		tr.convFrom, "@any", tr.genFromAny)
}

// convToAnyMethod returns the record->heap dispatcher.
func (tr *transformer) convToAnyMethod() (*lang.Method, error) {
	return tr.bridgeMethod("toAny", []*lang.Type{lang.LongType}, lang.ClassType("Object"),
		tr.convTo, "@any", tr.genToAny)
}

func (tr *transformer) convFromClassMethod(name string) (*lang.Method, error) {
	return tr.bridgeMethod("from"+name, []*lang.Type{lang.ClassType("Object")}, lang.LongType,
		tr.convFrom, name, func(f *ir.Func) error { return tr.genFromClass(f, name) })
}

func (tr *transformer) convToClassMethod(name string) (*lang.Method, error) {
	return tr.bridgeMethod("to"+name, []*lang.Type{lang.LongType}, lang.ClassType("Object"),
		tr.convTo, name, func(f *ir.Func) error { return tr.genToClass(f, name) })
}

func (tr *transformer) convFromArrMethod(t *lang.Type) (*lang.Method, error) {
	return tr.bridgeMethod("fromArr_"+mangle(t.Elem), []*lang.Type{t}, lang.LongType,
		tr.convFromArr, t.String(), func(f *ir.Func) error { return tr.genFromArr(f, t) })
}

func (tr *transformer) convToArrMethod(t *lang.Type) (*lang.Method, error) {
	return tr.bridgeMethod("toArr_"+mangle(t.Elem), []*lang.Type{lang.LongType}, t,
		tr.convToArr, t.String(), func(f *ir.Func) error { return tr.genToArr(f, t) })
}

// dataClassesMostDerivedFirst lists data classes with subclasses before
// their superclasses, so instanceof dispatch chains pick the most specific
// converter.
func (tr *transformer) dataClassesMostDerivedFirst() []*lang.Class {
	var out []*lang.Class
	list := tr.p.H.ClassList
	for i := len(list) - 1; i >= 0; i-- {
		if tr.data[list[i].Name] {
			out = append(out, list[i])
		}
	}
	return out
}

// genFromAny builds: if (x == null) return 0; if (x instanceof C1) return
// fromC1(x); ... ; trap.
func (tr *transformer) genFromAny(f *ir.Func) error {
	b := tr.newFuncBuilder(f)
	x := b.f.NewReg(lang.ClassType("Object"))
	f.Params = []ir.Reg{x}
	nullRet := b.f.NewReg(lang.LongType)
	isNull := b.f.NewReg(lang.BoolType)
	zero := b.f.NewReg(lang.NullType)
	b.emit(ir.Instr{Op: ir.OpConst, Dst: zero, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, NumKind: ir.KRef, Type: lang.NullType})
	b.emit(ir.Instr{Op: ir.OpBin, Sub: ir.BinEq, NumKind: ir.KRef, Dst: isNull, A: x, B: zero, C: ir.NoReg})
	// Blocks are appended as we go; block 0 branches to 1 (null) or 2.
	b.emit(ir.Instr{Op: ir.OpBranch, Dst: ir.NoReg, A: isNull, B: ir.NoReg, C: ir.NoReg, Blk: 1, Blk2: 2})
	b.newBlock() // 1: return 0
	b.emit(ir.Instr{Op: ir.OpConst, Dst: nullRet, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, NumKind: ir.KLong, Type: lang.LongType})
	b.emit(ir.Instr{Op: ir.OpRet, Dst: ir.NoReg, A: nullRet, B: ir.NoReg, C: ir.NoReg})

	classes := tr.dataClassesMostDerivedFirst()
	cur := b.newBlock() // 2
	for _, cls := range classes {
		m, err := tr.convFromClassMethod(cls.Name)
		if err != nil {
			return err
		}
		b.useBlock(cur)
		is := b.f.NewReg(lang.BoolType)
		b.emit(ir.Instr{Op: ir.OpInstOf, Dst: is, A: x, B: ir.NoReg, C: ir.NoReg, Type: lang.ClassType(cls.Name)})
		hit := b.numBlocks()
		next := hit + 1
		b.emit(ir.Instr{Op: ir.OpBranch, Dst: ir.NoReg, A: is, B: ir.NoReg, C: ir.NoReg, Blk: int32(hit), Blk2: int32(next)})
		b.newBlock() // hit
		ret := b.f.NewReg(lang.LongType)
		b.emit(ir.Instr{Op: ir.OpCallStatic, Dst: ret, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, M: m, Args: []ir.Reg{x}})
		b.emit(ir.Instr{Op: ir.OpRet, Dst: ir.NoReg, A: ret, B: ir.NoReg, C: ir.NoReg})
		cur = b.newBlock() // next
	}
	b.useBlock(cur)
	b.emit(ir.Instr{Op: ir.OpIntr, Sym: "trapNoReturn", Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg})
	b.emit(ir.Instr{Op: ir.OpRet, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg})
	b.finish()
	return nil
}

// genToAny builds the record->heap dispatcher over record type IDs.
func (tr *transformer) genToAny(f *ir.Func) error {
	b := tr.newFuncBuilder(f)
	x := b.f.NewReg(lang.LongType)
	f.Params = []ir.Reg{x}
	isNull := b.f.NewReg(lang.BoolType)
	zero := b.f.NewReg(lang.LongType)
	b.emit(ir.Instr{Op: ir.OpConst, Dst: zero, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, NumKind: ir.KLong, Type: lang.LongType})
	b.emit(ir.Instr{Op: ir.OpBin, Sub: ir.BinEq, NumKind: ir.KLong, Dst: isNull, A: x, B: zero, C: ir.NoReg})
	b.emit(ir.Instr{Op: ir.OpBranch, Dst: ir.NoReg, A: isNull, B: ir.NoReg, C: ir.NoReg, Blk: 1, Blk2: 2})
	b.newBlock() // 1: return null
	nul := b.f.NewReg(lang.NullType)
	b.emit(ir.Instr{Op: ir.OpConst, Dst: nul, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, NumKind: ir.KRef, Type: lang.NullType})
	b.emit(ir.Instr{Op: ir.OpRet, Dst: ir.NoReg, A: nul, B: ir.NoReg, C: ir.NoReg})

	classes := tr.dataClassesMostDerivedFirst()
	cur := b.newBlock() // 2
	for _, cls := range classes {
		m, err := tr.convToClassMethod(cls.Name)
		if err != nil {
			return err
		}
		b.useBlock(cur)
		is := b.f.NewReg(lang.BoolType)
		b.emit(ir.Instr{Op: ir.OpPInstOf, Dst: is, A: x, B: ir.NoReg, C: ir.NoReg, Cls: tr.facades[cls.Name]})
		hit := b.numBlocks()
		next := hit + 1
		b.emit(ir.Instr{Op: ir.OpBranch, Dst: ir.NoReg, A: is, B: ir.NoReg, C: ir.NoReg, Blk: int32(hit), Blk2: int32(next)})
		b.newBlock()
		ret := b.f.NewReg(lang.ClassType("Object"))
		b.emit(ir.Instr{Op: ir.OpCallStatic, Dst: ret, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, M: m, Args: []ir.Reg{x}})
		b.emit(ir.Instr{Op: ir.OpRet, Dst: ir.NoReg, A: ret, B: ir.NoReg, C: ir.NoReg})
		cur = b.newBlock()
	}
	b.useBlock(cur)
	b.emit(ir.Instr{Op: ir.OpIntr, Sym: "trapNoReturn", Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg})
	b.emit(ir.Instr{Op: ir.OpRet, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg})
	b.finish()
	return nil
}

// genFromClass copies each field of a heap object of class name into a
// fresh page record ("reads each field in an object of A and writes the
// value into a page").
func (tr *transformer) genFromClass(f *ir.Func, name string) error {
	cls := tr.p.H.Class(name)
	fc := tr.facades[name]
	b := tr.newFuncBuilder(f)
	x := b.f.NewReg(lang.ClassType("Object"))
	f.Params = []ir.Reg{x}
	rec := b.f.NewReg(lang.LongType)
	b.emit(ir.Instr{Op: ir.OpPNew, Dst: rec, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Cls: fc, Imm: int64(cls.BodySize)})
	for _, fl := range cls.AllFields {
		switch {
		case !fl.Type.IsRef():
			tmp := b.f.NewReg(fl.Type)
			b.emit(ir.Instr{Op: ir.OpLoad, Dst: tmp, A: x, B: ir.NoReg, C: ir.NoReg, Field: fl})
			b.emit(ir.Instr{Op: ir.OpPStore, Dst: ir.NoReg, A: rec, B: tmp, C: ir.NoReg, Field: fl})
		case fl.Type.Kind == lang.TArray:
			m, err := tr.convFromArrMethod(fl.Type)
			if err != nil {
				return err
			}
			tmp := b.f.NewReg(fl.Type)
			b.emit(ir.Instr{Op: ir.OpLoad, Dst: tmp, A: x, B: ir.NoReg, C: ir.NoReg, Field: fl})
			ref := b.f.NewReg(lang.LongType)
			b.emit(ir.Instr{Op: ir.OpCallStatic, Dst: ref, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, M: m, Args: []ir.Reg{tmp}})
			b.emit(ir.Instr{Op: ir.OpPStore, Dst: ir.NoReg, A: rec, B: ref, C: ir.NoReg, Field: fl})
		default:
			m, err := tr.convFromAnyMethod()
			if err != nil {
				return err
			}
			tmp := b.f.NewReg(fl.Type)
			b.emit(ir.Instr{Op: ir.OpLoad, Dst: tmp, A: x, B: ir.NoReg, C: ir.NoReg, Field: fl})
			ref := b.f.NewReg(lang.LongType)
			b.emit(ir.Instr{Op: ir.OpCallStatic, Dst: ref, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, M: m, Args: []ir.Reg{tmp}})
			b.emit(ir.Instr{Op: ir.OpPStore, Dst: ir.NoReg, A: rec, B: ref, C: ir.NoReg, Field: fl})
		}
	}
	b.emit(ir.Instr{Op: ir.OpRet, Dst: ir.NoReg, A: rec, B: ir.NoReg, C: ir.NoReg})
	b.finish()
	return nil
}

// genToClass copies each record field back into a fresh heap object.
func (tr *transformer) genToClass(f *ir.Func, name string) error {
	cls := tr.p.H.Class(name)
	b := tr.newFuncBuilder(f)
	x := b.f.NewReg(lang.LongType)
	f.Params = []ir.Reg{x}
	obj := b.f.NewReg(lang.ClassType(name))
	b.emit(ir.Instr{Op: ir.OpNew, Dst: obj, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Cls: cls})
	for _, fl := range cls.AllFields {
		switch {
		case !fl.Type.IsRef():
			tmp := b.f.NewReg(fl.Type)
			b.emit(ir.Instr{Op: ir.OpPLoad, Dst: tmp, A: x, B: ir.NoReg, C: ir.NoReg, Field: fl})
			b.emit(ir.Instr{Op: ir.OpStore, Dst: ir.NoReg, A: obj, B: tmp, C: ir.NoReg, Field: fl})
		case fl.Type.Kind == lang.TArray:
			m, err := tr.convToArrMethod(fl.Type)
			if err != nil {
				return err
			}
			ref := b.f.NewReg(lang.LongType)
			b.emit(ir.Instr{Op: ir.OpPLoad, Dst: ref, A: x, B: ir.NoReg, C: ir.NoReg, Field: fl})
			tmp := b.f.NewReg(fl.Type)
			b.emit(ir.Instr{Op: ir.OpCallStatic, Dst: tmp, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, M: m, Args: []ir.Reg{ref}})
			b.emit(ir.Instr{Op: ir.OpStore, Dst: ir.NoReg, A: obj, B: tmp, C: ir.NoReg, Field: fl})
		default:
			m, err := tr.convToAnyMethod()
			if err != nil {
				return err
			}
			ref := b.f.NewReg(lang.LongType)
			b.emit(ir.Instr{Op: ir.OpPLoad, Dst: ref, A: x, B: ir.NoReg, C: ir.NoReg, Field: fl})
			tmp := b.f.NewReg(lang.ClassType("Object"))
			b.emit(ir.Instr{Op: ir.OpCallStatic, Dst: tmp, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, M: m, Args: []ir.Reg{ref}})
			b.emit(ir.Instr{Op: ir.OpStore, Dst: ir.NoReg, A: obj, B: tmp, C: ir.NoReg, Field: fl})
		}
	}
	b.emit(ir.Instr{Op: ir.OpRet, Dst: ir.NoReg, A: obj, B: ir.NoReg, C: ir.NoReg})
	b.finish()
	return nil
}

// genFromArr converts a heap array to a page array element by element.
func (tr *transformer) genFromArr(f *ir.Func, t *lang.Type) error {
	elem := t.Elem
	b := tr.newFuncBuilder(f)
	x := b.f.NewReg(t)
	f.Params = []ir.Reg{x}
	// if (x == null) return 0;
	isNull := b.f.NewReg(lang.BoolType)
	zero := b.f.NewReg(lang.NullType)
	b.emit(ir.Instr{Op: ir.OpConst, Dst: zero, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, NumKind: ir.KRef, Type: lang.NullType})
	b.emit(ir.Instr{Op: ir.OpBin, Sub: ir.BinEq, NumKind: ir.KRef, Dst: isNull, A: x, B: zero, C: ir.NoReg})
	b.emit(ir.Instr{Op: ir.OpBranch, Dst: ir.NoReg, A: isNull, B: ir.NoReg, C: ir.NoReg, Blk: 1, Blk2: 2})
	b.newBlock() // 1
	z := b.f.NewReg(lang.LongType)
	b.emit(ir.Instr{Op: ir.OpConst, Dst: z, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, NumKind: ir.KLong, Type: lang.LongType})
	b.emit(ir.Instr{Op: ir.OpRet, Dst: ir.NoReg, A: z, B: ir.NoReg, C: ir.NoReg})
	b.newBlock() // 2: allocate and loop
	n := b.f.NewReg(lang.IntType)
	b.emit(ir.Instr{Op: ir.OpALen, Dst: n, A: x, B: ir.NoReg, C: ir.NoReg, Type: elem})
	rec := b.f.NewReg(lang.LongType)
	b.emit(ir.Instr{Op: ir.OpPNewArr, Dst: rec, A: n, B: ir.NoReg, C: ir.NoReg, Type: elem})
	i := b.f.NewReg(lang.IntType)
	b.emit(ir.Instr{Op: ir.OpConst, Dst: i, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, NumKind: ir.KInt, Type: lang.IntType})
	b.emit(ir.Instr{Op: ir.OpJump, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Blk: 3})
	b.newBlock() // 3: head
	cond := b.f.NewReg(lang.BoolType)
	b.emit(ir.Instr{Op: ir.OpBin, Sub: ir.BinLt, NumKind: ir.KInt, Dst: cond, A: i, B: n, C: ir.NoReg})
	b.emit(ir.Instr{Op: ir.OpBranch, Dst: ir.NoReg, A: cond, B: ir.NoReg, C: ir.NoReg, Blk: 4, Blk2: 5})
	b.newBlock() // 4: body
	ev := b.f.NewReg(elem)
	b.emit(ir.Instr{Op: ir.OpALoad, Dst: ev, A: x, B: i, C: ir.NoReg, Type: elem})
	store := ev
	if elem.IsRef() {
		var m *lang.Method
		var err error
		if elem.Kind == lang.TArray {
			m, err = tr.convFromArrMethod(elem)
		} else {
			m, err = tr.convFromAnyMethod()
		}
		if err != nil {
			return err
		}
		cv := b.f.NewReg(lang.LongType)
		b.emit(ir.Instr{Op: ir.OpCallStatic, Dst: cv, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, M: m, Args: []ir.Reg{ev}})
		store = cv
	}
	b.emit(ir.Instr{Op: ir.OpPAStore, Dst: ir.NoReg, A: rec, B: i, C: store, Type: elem})
	one := b.f.NewReg(lang.IntType)
	b.emit(ir.Instr{Op: ir.OpConst, Dst: one, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 1, NumKind: ir.KInt, Type: lang.IntType})
	b.emit(ir.Instr{Op: ir.OpBin, Sub: ir.BinAdd, NumKind: ir.KInt, Dst: i, A: i, B: one, C: ir.NoReg})
	b.emit(ir.Instr{Op: ir.OpJump, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Blk: 3})
	b.newBlock() // 5: done
	b.emit(ir.Instr{Op: ir.OpRet, Dst: ir.NoReg, A: rec, B: ir.NoReg, C: ir.NoReg})
	b.finish()
	return nil
}

// genToArr converts a page array back to a heap array.
func (tr *transformer) genToArr(f *ir.Func, t *lang.Type) error {
	elem := t.Elem
	b := tr.newFuncBuilder(f)
	x := b.f.NewReg(lang.LongType)
	f.Params = []ir.Reg{x}
	isNull := b.f.NewReg(lang.BoolType)
	zero := b.f.NewReg(lang.LongType)
	b.emit(ir.Instr{Op: ir.OpConst, Dst: zero, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, NumKind: ir.KLong, Type: lang.LongType})
	b.emit(ir.Instr{Op: ir.OpBin, Sub: ir.BinEq, NumKind: ir.KLong, Dst: isNull, A: x, B: zero, C: ir.NoReg})
	b.emit(ir.Instr{Op: ir.OpBranch, Dst: ir.NoReg, A: isNull, B: ir.NoReg, C: ir.NoReg, Blk: 1, Blk2: 2})
	b.newBlock() // 1
	nul := b.f.NewReg(lang.NullType)
	b.emit(ir.Instr{Op: ir.OpConst, Dst: nul, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, NumKind: ir.KRef, Type: lang.NullType})
	b.emit(ir.Instr{Op: ir.OpRet, Dst: ir.NoReg, A: nul, B: ir.NoReg, C: ir.NoReg})
	b.newBlock() // 2
	n := b.f.NewReg(lang.IntType)
	b.emit(ir.Instr{Op: ir.OpPALen, Dst: n, A: x, B: ir.NoReg, C: ir.NoReg, Type: elem})
	arr := b.f.NewReg(t)
	b.emit(ir.Instr{Op: ir.OpNewArr, Dst: arr, A: n, B: ir.NoReg, C: ir.NoReg, Type: elem})
	i := b.f.NewReg(lang.IntType)
	b.emit(ir.Instr{Op: ir.OpConst, Dst: i, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, NumKind: ir.KInt, Type: lang.IntType})
	b.emit(ir.Instr{Op: ir.OpJump, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Blk: 3})
	b.newBlock() // 3
	cond := b.f.NewReg(lang.BoolType)
	b.emit(ir.Instr{Op: ir.OpBin, Sub: ir.BinLt, NumKind: ir.KInt, Dst: cond, A: i, B: n, C: ir.NoReg})
	b.emit(ir.Instr{Op: ir.OpBranch, Dst: ir.NoReg, A: cond, B: ir.NoReg, C: ir.NoReg, Blk: 4, Blk2: 5})
	b.newBlock() // 4
	ev := b.f.NewReg(lang.LongType)
	b.emit(ir.Instr{Op: ir.OpPALoad, Dst: ev, A: x, B: i, C: ir.NoReg, Type: elem})
	store := ev
	if elem.IsRef() {
		var m *lang.Method
		var err error
		var tmpType *lang.Type
		if elem.Kind == lang.TArray {
			m, err = tr.convToArrMethod(elem)
			tmpType = elem
		} else {
			m, err = tr.convToAnyMethod()
			tmpType = lang.ClassType("Object")
		}
		if err != nil {
			return err
		}
		cv := b.f.NewReg(tmpType)
		b.emit(ir.Instr{Op: ir.OpCallStatic, Dst: cv, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, M: m, Args: []ir.Reg{ev}})
		store = cv
	} else {
		// Primitive element values transfer bit-for-bit, but the PALoad
		// destination register above was typed long; retype it to the
		// element type for correctness of later truncation. Values are
		// already normalized by loadRecElem, so a move suffices.
		ev2 := b.f.NewReg(elem)
		b.emit(ir.Instr{Op: ir.OpMove, Dst: ev2, A: ev, B: ir.NoReg, C: ir.NoReg})
		store = ev2
	}
	b.emit(ir.Instr{Op: ir.OpAStore, Dst: ir.NoReg, A: arr, B: i, C: store, Type: elem})
	one := b.f.NewReg(lang.IntType)
	b.emit(ir.Instr{Op: ir.OpConst, Dst: one, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Imm: 1, NumKind: ir.KInt, Type: lang.IntType})
	b.emit(ir.Instr{Op: ir.OpBin, Sub: ir.BinAdd, NumKind: ir.KInt, Dst: i, A: i, B: one, C: ir.NoReg})
	b.emit(ir.Instr{Op: ir.OpJump, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Blk: 3})
	b.newBlock() // 5
	b.emit(ir.Instr{Op: ir.OpRet, Dst: ir.NoReg, A: arr, B: ir.NoReg, C: ir.NoReg})
	b.finish()
	return nil
}

// Referenced from core.go error text.
var _ = fmt.Sprintf
