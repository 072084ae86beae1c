package vm

import (
	"encoding/binary"
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
	inFillNew
	inFillNewRec
	inRelease
	inReleaseRec
	inIterStart
	inIterEnd
	inTrapNoReturn
)

// intrinsics gives each Sys.* builtin its index and the argument count the
// linker holds every call site to; perClass marks Sys.fillNew's, which is
// its class's: a destination, a start and one column per field of Cls.
const perClass = -1

var intrinsics = map[string]struct{ index, args int }{
	"print": {inPrint, 1}, "println": {inPrintln, 1},
	"printRec": {inPrintRec, 1}, "printlnRec": {inPrintlnRec, 1},
	"sqrt": {inSqrt, 1}, "abs": {inAbs, 1}, "exp": {inExp, 1}, "log": {inLog, 1},
	"rand": {inRand, 1}, "arraycopy": {inArraycopy, 5}, "arraycopyRec": {inArraycopyRec, 5},
	"fillNew": {inFillNew, perClass}, "fillNewRec": {inFillNewRec, perClass},
	"release": {inRelease, 1}, "releaseRec": {inReleaseRec, 1},
	"iterStart": {inIterStart, 0}, "iterEnd": {inIterEnd, 0},
	"trapNoReturn": {inTrapNoReturn, 0},
}

// intrinsic dispatches the Sys.* builtins plus the page-half variants the
// FACADE transform substitutes ("arraycopyRec", "fillNewRec",
// "printRec"/"printlnRec", and OpStrLit's transformed twin handled in
// stringLiteral). s is the slot the linker built for in: Imm holds the
// index it found for in.Sym.
func (t *Thread) intrinsic(s *ir.Slot, in *ir.Instr, regs []Value) (Value, error) {
	vm := t.vm
	switch idx := int(s.Imm); idx {
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
	case inFillNew:
		return 0, t.fillHeap(in, regs)
	case inFillNewRec:
		return 0, t.fillRec(uint16(s.A), in, regs)
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
	panic(fmt.Sprintf("vm: intrinsic index %d out of the linker's table", s.Imm))
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
		b, err := t.record(ref)
		if err != nil {
			return "", err
		}
		tw := offheap.TypeWord(b)
		if idx, ok := offheap.ArrayType(tw); ok {
			return t.vm.RT.ArrayElemType(idx).String() + "[]", nil
		}
		cls := t.vm.Prog.H.ClassList[tw]
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
	f := t.vm.strField
	b, err := t.record(ref)
	if err != nil {
		return "", err
	}
	arr := offheap.PageRef(loadSlot(b[offheap.ScalarHeader+f.Offset:], f.Type.Kind))
	if arr == 0 {
		return "", nil
	}
	if b, err = t.record(arr); err != nil {
		return "", err
	}
	return string(b[offheap.ArrayHeader : offheap.ArrayHeader+offheap.ArrayLength(b)]), nil
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
	if err := checkCopy(srcPos, dstPos, n, heap.ArrayLength(sb), heap.ArrayLength(db)); err != nil {
		return err
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

// arraycopyRec is Sys.arraycopy on the page store (program P'). It holds
// both arrays' bytes at once, so the destination is resolved with Resident,
// which spills no page, after the source.
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
	sb, err := t.record(src)
	if err != nil {
		return err
	}
	db, err := rt.Resident(dst)
	if err != nil {
		return err
	}
	if err := checkCopy(srcPos, dstPos, n, offheap.ArrayLength(sb), offheap.ArrayLength(db)); err != nil {
		return err
	}
	idx, _ := offheap.ArrayType(offheap.TypeWord(sb))
	es := rt.ArrayElemType(idx).FieldSize()
	so, do := offheap.ArrayHeader+srcPos*es, offheap.ArrayHeader+dstPos*es
	copy(db[do:do+n*es], sb[so:so+n*es])
	return nil
}

// checkRun is the bounds check of a bulk operation over a run of an array:
// the n elements from pos must lie inside its length. The message names the
// operation and the array (what), so that an operation over several arrays
// blames the one that overflowed; a negative n is the operation's fault,
// not an array's.
func checkRun(op, what string, pos, n, length int) error {
	switch {
	case n < 0:
		return fmt.Errorf("ArrayIndexOutOfBoundsException: %s length %d is negative", op, n)
	case pos < 0 || pos > length-n:
		return fmt.Errorf("ArrayIndexOutOfBoundsException: %s %s [%d, %d) out of bounds for length %d",
			op, what, pos, pos+n, length)
	}
	return nil
}

// checkCopy checks both runs of Sys.arraycopy, the same in P and P'.
func checkCopy(srcPos, dstPos, n, srcLen, dstLen int) error {
	if err := checkRun("arraycopy", "source", srcPos, n, srcLen); err != nil {
		return err
	}
	return checkRun("arraycopy", "destination", dstPos, n, dstLen)
}

// Sys.fillNew(C[] dst, int from, col_1, ..., col_k) is §3.5's conversion at
// the interaction point, done in one call: dst[i] becomes a new C (in.Cls)
// whose j-th field, in AllFields order, is col_j[from+i]. Both halves run
// every check before the first allocation, so a trap leaves dst untouched
// and reads the same in P and P'; the call then makes exactly len(dst)
// allocations, as the loop of news it replaces did. A field and its column
// element have one slot layout in both memories, so each field moves through
// the loadSlot/storeSlot codec.

// fillSlot is one field of a fill: its offset in the body, its kind, and its
// width, which is also its column's element width. The halves lay the
// class out once per call, not once per element.
type fillSlot struct {
	off, width int
	kind       lang.TypeKind
}

// fillLayout lays in.Cls's fields out into buf, which is grown if short.
func fillLayout(in *ir.Instr, buf []fillSlot) []fillSlot {
	buf = buf[:0]
	for _, f := range in.Cls.AllFields {
		buf = append(buf, fillSlot{f.Offset, f.Type.FieldSize(), f.Type.Kind})
	}
	return buf
}

// fillNulls is Sys.fillNew's null check of its destination and columns.
func fillNulls(in *ir.Instr, regs []Value) error {
	if regs[in.Args[0]] == 0 {
		return errNPE("fillNew destination")
	}
	for j, f := range in.Cls.AllFields {
		if regs[in.Args[2+j]] == 0 {
			return errNPE("fillNew column " + f.Name)
		}
	}
	return nil
}

// fillRuns checks that every column holds the n elements from from, given
// its length.
func fillRuns(in *ir.Instr, from, n int, length func(j int) int) error {
	for j, f := range in.Cls.AllFields {
		if err := checkRun("fillNew column", f.Name, from, n, length(j)); err != nil {
			return err
		}
	}
	return nil
}

// fillHeap is Sys.fillNew on the heap (program P). An allocation may
// collect and move dst and the columns; the collector updates the frame's
// registers as roots, so every address is read from regs again after each
// allocation, and the new object goes into dst through the write barrier.
func (t *Thread) fillHeap(in *ir.Instr, regs []Value) error {
	hp := t.vm.Heap
	if err := fillNulls(in, regs); err != nil {
		return err
	}
	args := in.Args
	length := func(r ir.Reg) int { return heap.ArrayLength(hp.Bytes(heap.Addr(regs[r]))) }
	from, n := int(int32(regs[args[1]])), length(args[0])
	if err := fillRuns(in, from, n, func(j int) int { return length(args[2+j]) }); err != nil {
		return err
	}
	var buf [8]fillSlot
	slots := fillLayout(in, buf[:])
	for i := 0; i < n; i++ {
		obj, err := hp.AllocObject(t.tc, in.Cls, in.Site)
		if err != nil {
			return err
		}
		body := hp.Bytes(obj)[heap.ScalarHeader:]
		for j, f := range slots {
			col := hp.Bytes(heap.Addr(regs[args[2+j]]))[heap.ArrayHeader+(from+i)*f.width:]
			storeSlot(body[f.off:], f.kind, loadSlot(col, f.kind))
		}
		dst, slot := heap.Addr(regs[args[0]]), heap.ArrayHeader+i*8
		binary.LittleEndian.PutUint64(hp.Bytes(dst)[slot:], uint64(obj))
		hp.Barrier(t.tc, dst+heap.Addr(slot), obj)
	}
	return nil
}

// fillRec is Sys.fillNew on the page store (program P'): each record is
// allocated from the thread's current manager with type word tw, the
// facade class the linker found for in.Cls, and written through the bytes
// the allocation returns. dst and the columns are resolved once, into views
// indexed like in.Args (views[1], the start, is unused), with Resident: no
// promotion spills a page another view points into. Only an allocation can
// spill one — with the world stopped — so the views are resolved again only
// when the store's spill count has moved.
func (t *Thread) fillRec(tw uint16, in *ir.Instr, regs []Value) error {
	rt := t.vm.RT
	if err := fillNulls(in, regs); err != nil {
		return err
	}
	args := in.Args
	var buf [8][]byte
	views := buf[:]
	if len(args) > len(buf) {
		views = make([][]byte, len(args))
	}
	views = views[:len(args)]
	spills := rt.Spills()
	if err := t.fillViews(args, regs, views); err != nil {
		return err
	}
	from, n := int(int32(regs[args[1]])), offheap.ArrayLength(views[0])
	if err := fillRuns(in, from, n, func(j int) int { return offheap.ArrayLength(views[2+j]) }); err != nil {
		return err
	}
	var sbuf [8]fillSlot
	slots := fillLayout(in, sbuf[:])
	pm := t.iter.Current()
	for i := 0; i < n; i++ {
		ref, rec, err := pm.NewRecord(parker{t}, tw, in.Cls.BodySize)
		if err != nil {
			return err
		}
		if now := rt.Spills(); now != spills {
			spills = now
			if err := t.fillViews(args, regs, views); err != nil {
				return err
			}
		}
		if rec == nil {
			if rec, err = rt.Resident(ref); err != nil {
				return err
			}
		}
		body := rec[offheap.ScalarHeader:]
		for j, f := range slots {
			col := views[2+j][offheap.ArrayHeader+(from+i)*f.width:]
			storeSlot(body[f.off:], f.kind, loadSlot(col, f.kind))
		}
		binary.LittleEndian.PutUint64(views[0][offheap.ArrayHeader+i*8:], uint64(ref))
	}
	return nil
}

// fillViews resolves fillRec's destination and columns into views.
func (t *Thread) fillViews(args []ir.Reg, regs []Value, views [][]byte) error {
	for k, r := range args {
		if k == 1 {
			continue
		}
		b, err := t.vm.RT.Resident(offheap.PageRef(regs[r]))
		if err != nil {
			return err
		}
		views[k] = b
	}
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
	b, err := t.record(arr)
	if err != nil {
		return 0, err
	}
	copy(b[offheap.ArrayHeader:], s)
	rec, err := pm.AllocRecord(parker{t}, uint16(sf.ID), vm.stringBodySize())
	if err != nil {
		return 0, err
	}
	if b, err = t.record(rec); err != nil {
		return 0, err
	}
	f := vm.strField
	storeSlot(b[offheap.ScalarHeader+f.Offset:], f.Type.Kind, Value(arr))
	return Value(rec), nil
}

// stringBodySize returns the record body size of String (taken from the
// original class layout carried on the value field's owner).
func (vm *VM) stringBodySize() int {
	return vm.strField.Owner.BodySize
}
