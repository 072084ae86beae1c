package vm

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/heap"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/offheap"
)

// Intrinsic indices, resolved by name once at link time and carried in the
// execution slot's Imm so the interpreter dispatches on an int.
const (
	inPrint = iota + 1
	inPrintln
	inPrintRec
	inPrintlnRec
	inSqrt
	inAbs
	inExp
	inLog
	inRand
	inArraycopy
	inArraycopyRec
	inRelease
	inReleaseRec
	inIterStart
	inIterEnd
	inTrapNoReturn
)

// intrinsics gives each Sys.* builtin its index and the argument count the
// linker holds every call site to.
var intrinsics = map[string]struct{ index, args int }{
	"print": {inPrint, 1}, "println": {inPrintln, 1},
	"printRec": {inPrintRec, 1}, "printlnRec": {inPrintlnRec, 1},
	"sqrt": {inSqrt, 1}, "abs": {inAbs, 1}, "exp": {inExp, 1}, "log": {inLog, 1},
	"rand": {inRand, 1}, "arraycopy": {inArraycopy, 5}, "arraycopyRec": {inArraycopyRec, 5},
	"release": {inRelease, 1}, "releaseRec": {inReleaseRec, 1},
	"iterStart": {inIterStart, 0}, "iterEnd": {inIterEnd, 0},
	"trapNoReturn": {inTrapNoReturn, 0},
}

// intrinsic dispatches the Sys.* builtins plus the page-half variants the
// FACADE transform substitutes ("arraycopyRec", "printRec"/"printlnRec",
// and OpStrLit's transformed twin handled in stringLiteral). idx is the
// index the linker found for in.Sym.
func (t *Thread) intrinsic(idx int, in *ir.Instr, regs []Value) (Value, error) {
	vm := t.vm
	switch idx {
	case inPrint, inPrintln:
		s, err := t.formatValue(in.Type, regs[in.Args[0]], false)
		if err != nil {
			return 0, err
		}
		t.writeOut(s, idx == inPrintln)
		return 0, nil
	case inPrintRec, inPrintlnRec:
		s, err := t.formatValue(in.Type, regs[in.Args[0]], true)
		if err != nil {
			return 0, err
		}
		t.writeOut(s, idx == inPrintlnRec)
		return 0, nil
	case inSqrt:
		return math.Float64bits(math.Sqrt(math.Float64frombits(regs[in.Args[0]]))), nil
	case inAbs:
		return math.Float64bits(math.Abs(math.Float64frombits(regs[in.Args[0]]))), nil
	case inExp:
		return math.Float64bits(math.Exp(math.Float64frombits(regs[in.Args[0]]))), nil
	case inLog:
		return math.Float64bits(math.Log(math.Float64frombits(regs[in.Args[0]]))), nil
	case inRand:
		bound := int32(regs[in.Args[0]])
		if bound <= 0 {
			return 0, fmt.Errorf("IllegalArgumentException: Sys.rand bound %d", bound)
		}
		return Value(uint32(int32(vm.rand() % uint64(bound)))), nil
	case inArraycopy:
		return 0, t.arraycopyHeap(in, regs)
	case inArraycopyRec:
		return 0, t.arraycopyRec(in, regs)
	case inRelease:
		// Heap objects are the collector's business; nothing to do in P.
		return 0, nil
	case inReleaseRec:
		// §3.6 optimization 3: free the oversize page behind a dead large
		// record before the iteration ends.
		vm.RT.ReleaseOversize(offheap.PageRef(regs[in.Args[0]]))
		return 0, nil
	case inIterStart:
		t.IterationStart()
		return 0, nil
	case inIterEnd:
		t.IterationEnd()
		return 0, nil
	case inTrapNoReturn:
		return 0, fmt.Errorf("vm: missing return in value-returning method")
	}
	panic(fmt.Sprintf("vm: intrinsic index %d out of the linker's table", idx))
}

func (t *Thread) writeOut(s string, nl bool) {
	vm := t.vm
	vm.outMu.Lock()
	defer vm.outMu.Unlock()
	if nl {
		fmt.Fprintln(vm.out, s)
		return
	}
	fmt.Fprint(vm.out, s)
}

// formatValue renders a value of static type typ the way Sys.print does.
// rec selects page-record semantics for references.
func (t *Thread) formatValue(typ *lang.Type, v Value, rec bool) (string, error) {
	if typ == nil {
		return strconv.FormatInt(int64(v), 10), nil
	}
	switch typ.Kind {
	case lang.TBool:
		if v != 0 {
			return "true", nil
		}
		return "false", nil
	case lang.TByte:
		return strconv.FormatInt(int64(int8(v)), 10), nil
	case lang.TInt:
		return strconv.FormatInt(int64(int32(v)), 10), nil
	case lang.TLong:
		// In P' a "long" may be a retyped data reference; the transform
		// emits printRec for those, so a plain long prints numerically.
		return strconv.FormatInt(int64(v), 10), nil
	case lang.TDouble:
		return formatDouble(math.Float64frombits(v)), nil
	case lang.TNull:
		return "null", nil
	}
	// Reference types.
	if v == 0 {
		return "null", nil
	}
	if rec {
		ref := offheap.PageRef(v)
		rt := t.vm.RT
		if rt.IsArrayRecord(ref) {
			return rt.ArrayElemType(rt.ArrayTypeOf(ref)).String() + "[]", nil
		}
		cls := t.vm.Prog.H.ClassList[rt.ClassID(ref)]
		if cls.Name == ir.FacadeName("String") {
			return t.recStringContents(ref)
		}
		name := cls.Name
		if orig, ok := ir.FacadeOrig(name); ok {
			name = orig
		}
		return name, nil
	}
	a := heap.Addr(v)
	hp := t.vm.Heap
	if hp.IsArray(a) {
		return hp.ArrayElemOf(a).String() + "[]", nil
	}
	cls := hp.ClassOf(a)
	if cls == t.vm.strClass && cls != nil {
		return t.heapStringContents(a)
	}
	return cls.Name, nil
}

// formatDouble prints doubles deterministically; both P and P' use this,
// so output equivalence is preserved.
func formatDouble(f float64) string {
	s := strconv.FormatFloat(f, 'g', -1, 64)
	return s
}

// heapStringContents reads a managed String object's bytes.
func (t *Thread) heapStringContents(a heap.Addr) (string, error) {
	hp, f := t.vm.Heap, t.vm.strField
	arr := heap.Addr(loadSlot(hp.Bytes(a)[heap.ScalarHeader+f.Offset:], f.Type.Kind))
	if arr == 0 {
		return "", nil
	}
	b := hp.Bytes(arr)
	return string(b[heap.ArrayHeader : heap.ArrayHeader+heap.ArrayLength(b)]), nil
}

// recStringContents reads a String page record's bytes.
func (t *Thread) recStringContents(ref offheap.PageRef) (string, error) {
	rt := t.vm.RT
	arr := rt.GetRef(ref, t.vm.strField.Offset)
	if arr == 0 {
		return "", nil
	}
	n := rt.ArrayLen(arr)
	return string(rt.ReadBody(arr, 0, n)), nil
}

func (t *Thread) arraycopyHeap(in *ir.Instr, regs []Value) error {
	hp := t.vm.Heap
	src := heap.Addr(regs[in.Args[0]])
	srcPos := int(int32(regs[in.Args[1]]))
	dst := heap.Addr(regs[in.Args[2]])
	dstPos := int(int32(regs[in.Args[3]]))
	n := int(int32(regs[in.Args[4]]))
	if src == 0 || dst == 0 {
		return errNPE("arraycopy")
	}
	sb, db := hp.Bytes(src), hp.Bytes(dst)
	if n < 0 || srcPos < 0 || dstPos < 0 ||
		srcPos+n > heap.ArrayLength(sb) || dstPos+n > heap.ArrayLength(db) {
		return errBounds(srcPos+n, heap.ArrayLength(sb))
	}
	elem := hp.ArrayElemOf(src)
	es := elem.FieldSize()
	so, do := heap.ArrayHeader+srcPos*es, heap.ArrayHeader+dstPos*es
	if !elem.IsRef() {
		copy(db[do:do+n*es], sb[so:so+n*es])
		return nil
	}
	// Element-wise with the write barrier. Handle overlap like
	// System.arraycopy (memmove semantics).
	move := func(i int) {
		v := loadSlot(sb[so+i*es:], elem.Kind)
		storeSlot(db[do+i*es:], elem.Kind, v)
		hp.Barrier(t.tc, dst+heap.Addr(do+i*es), heap.Addr(v))
	}
	if src == dst && dstPos > srcPos {
		for i := n - 1; i >= 0; i-- {
			move(i)
		}
	} else {
		for i := 0; i < n; i++ {
			move(i)
		}
	}
	return nil
}

func (t *Thread) arraycopyRec(in *ir.Instr, regs []Value) error {
	rt := t.vm.RT
	src := offheap.PageRef(regs[in.Args[0]])
	srcPos := int(int32(regs[in.Args[1]]))
	dst := offheap.PageRef(regs[in.Args[2]])
	dstPos := int(int32(regs[in.Args[3]]))
	n := int(int32(regs[in.Args[4]]))
	if src == 0 || dst == 0 {
		return errNPE("arraycopy")
	}
	if n < 0 || srcPos < 0 || dstPos < 0 ||
		srcPos+n > rt.ArrayLen(src) || dstPos+n > rt.ArrayLen(dst) {
		return errBounds(srcPos+n, rt.ArrayLen(src))
	}
	es := rt.ArrayElemType(rt.ArrayTypeOf(src)).FieldSize()
	rt.ArrayCopy(src, srcPos, dst, dstPos, n, es)
	return nil
}

// ---------------------------------------------------------------------------
// String literals

// stringLiteral returns the interned representation of string pool entry
// idx: a managed String object for P, a String page record (allocated from
// the VM's root scope, alive for the program) for P'.
func (t *Thread) stringLiteral(idx int) (Value, error) {
	vm := t.vm
	t.tc.BeginExternal()
	vm.strMu.Lock()
	t.tc.EndExternal()
	defer vm.strMu.Unlock()
	if vm.strDone[idx] {
		return vm.strCache[idx], nil
	}
	s := vm.Prog.StringPool[idx]
	var v Value
	var err error
	if vm.Prog.Transformed {
		// Literals live for the program: the VM's root scope.
		v, err = t.recString(vm.rootScope, s)
	} else {
		v, err = t.makeHeapString(s)
	}
	if err != nil {
		return 0, err
	}
	vm.strCache[idx] = v
	vm.strDone[idx] = true
	return v, nil
}

// makeHeapString builds a managed String object (byte[] + String).
func (t *Thread) makeHeapString(s string) (Value, error) {
	hp := t.vm.Heap
	arr, err := hp.AllocArray(t.tc, lang.ByteType, len(s), 0)
	if err != nil {
		return 0, err
	}
	copy(hp.Bytes(arr)[heap.ArrayHeader:], s)
	h := t.vm.NewHandle(Value(arr), true)
	obj, err := hp.AllocObject(t.tc, t.vm.strClass, 0)
	if err != nil {
		t.vm.Drop(h)
		return 0, err
	}
	arr = heap.Addr(t.vm.Get(h))
	t.vm.Drop(h)
	off := heap.ScalarHeader + t.vm.strField.Offset
	storeSlot(hp.Bytes(obj)[off:], t.vm.strField.Type.Kind, Value(arr))
	hp.Barrier(t.tc, obj+heap.Addr(off), arr)
	return Value(obj), nil
}

// recString builds a String page record (byte[] + String) in pm.
func (t *Thread) recString(pm *offheap.PageManager, s string) (Value, error) {
	vm, rt := t.vm, t.vm.RT
	sf := vm.facadeOf("String")
	if sf == nil {
		return 0, fmt.Errorf("vm: transformed program has no String facade")
	}
	arr, err := pm.AllocArray(parker{t}, rt.ArrayTypeIndex(lang.ByteType), 1, len(s))
	if err != nil {
		return 0, err
	}
	rt.WriteBody(arr, 0, []byte(s))
	rec, err := pm.AllocRecord(parker{t}, uint16(sf.ID), vm.stringBodySize())
	if err != nil {
		return 0, err
	}
	rt.SetRef(rec, vm.strField.Offset, arr)
	return Value(rec), nil
}

// stringBodySize returns the record body size of String (taken from the
// original class layout carried on the value field's owner).
func (vm *VM) stringBodySize() int {
	return vm.strField.Owner.BodySize
}
