package vm

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/heap"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/offheap"
)

// Boundary API: the control path (framework Go code) manipulates data-path
// values through these helpers. They are the runtime's interaction points
// (§3.5): for untransformed programs they operate on managed heap objects;
// for transformed programs they operate on page records, wrapping facades
// around call arguments exactly as the generated code does.
//
// Framework code never holds raw heap addresses: references live in the VM
// handle table (Obj), which the collector traces and updates. Helpers
// resolve handles after entering the mutator state, so the values they use
// cannot be stale.

// Obj is a framework-held reference to a data object or record.
type Obj = Handle

// NilObj is the null Obj.
const NilObj Obj = -1

// Arg is one boundary-call argument.
type Arg struct {
	kind byte // 'i' prim, 'd' double, 'o' object, 's' string
	i    int64
	f    float64
	o    Obj
	s    string
}

// I passes an int/long/bool/byte argument.
func I(v int64) Arg { return Arg{kind: 'i', i: v} }

// F passes a double argument.
func F(v float64) Arg { return Arg{kind: 'd', f: v} }

// O passes a data object argument.
func O(o Obj) Arg { return Arg{kind: 'o', o: o} }

// S passes a Go string, converted to a String object/record at the
// boundary (an entry-point conversion).
func S(s string) Arg { return Arg{kind: 's', s: s} }

func (t *Thread) argValue(a Arg) (Value, error) {
	switch a.kind {
	case 'i':
		return Value(a.i), nil
	case 'd':
		return f64bits(a.f), nil
	case 'o':
		if a.o == NilObj {
			return 0, nil
		}
		return t.vm.Get(a.o), nil
	case 's':
		return t.makeString(a.s)
	}
	return 0, fmt.Errorf("vm: bad argument kind")
}

// wrapObj registers a reference result as a handle. For transformed
// programs the value is a page reference and is not traced.
func (t *Thread) wrapObj(v Value) Obj {
	if v == 0 {
		return NilObj
	}
	return t.vm.NewHandle(v, !t.vm.Prog.Transformed)
}

// FreeObj releases a framework-held reference.
func (t *Thread) FreeObj(o Obj) {
	if o != NilObj {
		t.vm.Drop(o)
	}
}

// makeString builds a String value in mutator state (the thread must be
// running). Used for S() arguments and literals crossing the boundary;
// record strings are allocated in the thread's current iteration scope.
func (t *Thread) makeString(s string) (Value, error) {
	if t.vm.Prog.Transformed {
		return t.recString(t.iter.Current(), s)
	}
	return t.makeHeapString(s)
}

// NewString converts a Go string at the boundary and returns a handle.
func (t *Thread) NewString(s string) (Obj, error) {
	t.enterBoundary()
	defer t.tc.BeginExternal()
	v, err := t.makeString(s)
	if err != nil {
		return NilObj, err
	}
	return t.wrapObj(v), nil
}

// GoString reads a String object/record back into a Go string (an
// exit-point conversion).
func (t *Thread) GoString(o Obj) (string, error) {
	t.enterBoundary()
	defer t.tc.BeginExternal()
	if o == NilObj {
		return "", nil
	}
	v := t.vm.Get(o)
	if t.vm.Prog.Transformed {
		return t.recStringContents(offheap.PageRef(v))
	}
	return t.heapStringContents(heap.Addr(v))
}

// ---------------------------------------------------------------------------
// Allocation

// NewObj allocates a data object of class and runs its constructor with
// the given arguments.
func (t *Thread) NewObj(class string, args ...Arg) (Obj, error) {
	t.enterBoundary()
	defer t.tc.BeginExternal()
	v, err := t.newValue(class, args)
	if err != nil {
		return NilObj, err
	}
	return t.wrapObj(v), nil
}

func (t *Thread) newValue(class string, args []Arg) (Value, error) {
	h := t.vm.Prog.H
	if t.vm.Prog.Transformed {
		fc := t.vm.facadeOf(class)
		if fc == nil {
			return 0, fmt.Errorf("vm: %s is not a data class of the transformed program", class)
		}
		oc := h.Class(class)
		ref, err := t.iter.Current().AllocRecord(parker{t}, uint16(fc.ID), oc.BodySize)
		if err != nil {
			return 0, err
		}
		ctor := t.vm.byKey[ir.CtorKey(fc.Name)]
		if ctor != nil {
			if _, err := t.facadeCall(ctor, offheap.PageRef(ref), args); err != nil {
				return 0, err
			}
		} else if len(args) > 0 {
			return 0, fmt.Errorf("vm: %s has no constructor", class)
		}
		return Value(ref), nil
	}
	oc := h.Class(class)
	if oc == nil {
		return 0, fmt.Errorf("vm: unknown class %s", class)
	}
	a, err := t.vm.Heap.AllocObject(t.tc, oc, 0)
	if err != nil {
		return 0, err
	}
	ctor := t.vm.byKey[ir.CtorKey(class)]
	if ctor == nil {
		if len(args) > 0 {
			return 0, fmt.Errorf("vm: %s has no constructor", class)
		}
		return Value(a), nil
	}
	// Pin the object across argument materialization and the constructor
	// run: both may collect and move it.
	hh := t.vm.NewHandle(Value(a), true)
	defer t.vm.Drop(hh)
	argVals, cleanup, err := t.resolveArgs(args)
	if err != nil {
		return 0, err
	}
	defer cleanup()
	vals := make([]Value, 0, len(argVals)+1)
	vals = append(vals, t.vm.Get(hh))
	vals = append(vals, argVals...)
	if _, err := t.exec(ctor, vals); err != nil {
		return 0, err
	}
	return t.vm.Get(hh), nil
}

// facadeCall invokes a facade-class function, mirroring the generated call
// protocol (resolve + pool binding): an instance method gets its receiver
// facade bound to the page record recv; a static method ignores recv.
func (t *Thread) facadeCall(fn *ir.Func, recv offheap.PageRef, args []Arg) (Value, error) {
	m := fn.Method
	vals := make([]Value, 0, len(args)+1)
	if !m.Static {
		// Bind the receiver facade from the receiver pool of the record's
		// runtime type.
		b, err := t.record(recv)
		if err != nil {
			return 0, err
		}
		tw := offheap.TypeWord(b)
		pe := t.pools[int(tw)]
		if pe == nil {
			return 0, fmt.Errorf("vm: no receiver pool for record type %d", tw)
		}
		t.bindFacade(pe.recv, recv)
		vals = append(vals, pe.recv)
	}
	perClass := make(map[int]int)
	for i, ag := range args {
		v, err := t.argValue(ag)
		if err != nil {
			return 0, err
		}
		// Data-typed parameters travel in parameter-pool facades.
		if i < len(m.Params) && t.isFacadeType(m.Params[i]) {
			fa, err := t.bindParamFacade(m.Params[i], offheap.PageRef(v), perClass)
			if err != nil {
				return 0, err
			}
			vals = append(vals, fa)
			continue
		}
		vals = append(vals, v)
	}
	ret, err := t.exec(fn, vals)
	if err != nil {
		return 0, err
	}
	// Data-typed returns come back as a bound facade; unwrap to the page
	// reference.
	if t.isFacadeType(m.Ret) && ret != 0 {
		b := t.vm.Heap.Bytes(heap.Addr(ret))
		ret = loadSlot(b[heap.ScalarHeader+t.vm.pageRefField.Offset:], lang.TLong)
	}
	return ret, nil
}

// bindParamFacade draws a parameter facade the way generated call sites do
// (§3.3): from the pool of the parameter's declared type when that type
// has one, otherwise from the pool of the argument's runtime type. A null
// page reference travels in a null-bound facade, not as a null facade.
func (t *Thread) bindParamFacade(declared *lang.Type, ref offheap.PageRef, perClass map[int]int) (Value, error) {
	poolID := -1
	if declared.Kind == lang.TClass {
		if c := t.vm.Prog.H.Class(declared.Name); c != nil && c.ID < len(t.pools) && t.pools[c.ID] != nil {
			poolID = c.ID
		}
	}
	if poolID < 0 {
		if ref == 0 {
			// Null argument with an interface-typed parameter: any pool
			// works; use the Facade base pool.
			if fb := t.vm.Prog.H.Class("Facade"); fb != nil && t.pools[fb.ID] != nil {
				poolID = fb.ID
			} else {
				return 0, fmt.Errorf("vm: no pool for null %s argument", declared)
			}
		} else {
			b, err := t.record(ref)
			if err != nil {
				return 0, err
			}
			poolID = int(offheap.TypeWord(b))
		}
	}
	ppe := t.pools[poolID]
	if ppe == nil {
		return 0, fmt.Errorf("vm: no parameter pool for type id %d", poolID)
	}
	idx := perClass[poolID]
	perClass[poolID]++
	if idx >= len(ppe.params) {
		return 0, fmt.Errorf("vm: parameter pool overflow for type id %d (bound %d)", poolID, len(ppe.params))
	}
	fa := ppe.params[idx]
	t.bindFacade(fa, ref)
	return fa, nil
}

// isFacadeType reports whether a transformed-signature type denotes a
// facade (data) parameter.
func (t *Thread) isFacadeType(ty *lang.Type) bool {
	if ty == nil || ty.Kind != lang.TClass && ty.Kind != lang.TIface {
		return false
	}
	if ty.Kind == lang.TIface {
		// Transformed interfaces are the IFacade twins.
		_, ok := ir.FacadeOrig(ty.Name)
		return ok
	}
	c := t.vm.Prog.H.Class(ty.Name)
	if c == nil {
		return false
	}
	fb := t.vm.Prog.H.Class("Facade")
	return fb != nil && c.IsSubclassOf(fb)
}

// NewArr allocates a data array with the given element type ("int",
// "byte", "double", "long", "boolean", or a class name, with optional []
// suffixes).
func (t *Thread) NewArr(elem string, n int) (Obj, error) {
	ty, err := t.parseTypeName(elem)
	if err != nil {
		return NilObj, err
	}
	t.enterBoundary()
	defer t.tc.BeginExternal()
	if t.vm.Prog.Transformed {
		ref, err := t.iter.Current().AllocArray(parker{t}, t.vm.RT.ArrayTypeIndex(ty), ty.FieldSize(), n)
		if err != nil {
			return NilObj, err
		}
		return t.wrapObj(Value(ref)), nil
	}
	a, err := t.vm.Heap.AllocArray(t.tc, ty, n, 0)
	if err != nil {
		return NilObj, err
	}
	return t.wrapObj(Value(a)), nil
}

func (t *Thread) parseTypeName(name string) (*lang.Type, error) {
	dims := 0
	for len(name) > 2 && name[len(name)-2:] == "[]" {
		dims++
		name = name[:len(name)-2]
	}
	var ty *lang.Type
	switch name {
	case "boolean":
		ty = lang.BoolType
	case "byte":
		ty = lang.ByteType
	case "int":
		ty = lang.IntType
	case "long":
		ty = lang.LongType
	case "double":
		ty = lang.DoubleType
	default:
		if c := t.vm.Prog.H.Class(name); c != nil {
			ty = lang.ClassType(name)
		} else if i := t.vm.Prog.H.Iface(name); i != nil {
			ty = lang.IfaceType(name)
		} else {
			return nil, fmt.Errorf("vm: unknown type %s", name)
		}
	}
	for i := 0; i < dims; i++ {
		ty = lang.ArrayOf(ty)
	}
	return ty, nil
}

// ---------------------------------------------------------------------------
// Calls

// Invoke calls a method on a data object (virtual dispatch on its runtime
// type) and returns the raw primitive result.
func (t *Thread) Invoke(o Obj, method string, args ...Arg) (Value, error) {
	t.enterBoundary()
	defer t.tc.BeginExternal()
	if o == NilObj {
		return 0, errNPE("boundary call " + method)
	}
	recv := t.vm.Get(o)
	if t.vm.Prog.Transformed {
		ref := offheap.PageRef(recv)
		b, err := t.record(ref)
		if err != nil {
			return 0, err
		}
		fc := t.vm.Prog.H.ClassList[offheap.TypeWord(b)]
		fn := t.vm.method(fc, method)
		if fn == nil {
			return 0, fmt.Errorf("vm: %s has no method %s", fc.Name, method)
		}
		return t.facadeCall(fn, ref, args)
	}
	cls := t.vm.Heap.ClassOf(heap.Addr(recv))
	if cls == nil {
		return 0, fmt.Errorf("vm: boundary call on array")
	}
	fn := t.vm.method(cls, method)
	if fn == nil {
		return 0, fmt.Errorf("vm: %s has no method %s", cls.Name, method)
	}
	hh := t.vm.NewHandle(recv, true)
	defer t.vm.Drop(hh)
	argVals, cleanup, err := t.resolveArgs(args)
	if err != nil {
		return 0, err
	}
	defer cleanup()
	vals := make([]Value, 0, len(argVals)+1)
	vals = append(vals, t.vm.Get(hh))
	vals = append(vals, argVals...)
	return t.exec(fn, vals)
}

// InvokeStatic calls a static data-path method.
func (t *Thread) InvokeStatic(class, method string, args ...Arg) (Value, error) {
	v, _, err := t.invokeStatic(class, method, args, false)
	return v, err
}

// InvokeStaticObj is InvokeStatic for methods returning a data reference.
func (t *Thread) InvokeStaticObj(class, method string, args ...Arg) (Obj, error) {
	_, ro, err := t.invokeStatic(class, method, args, true)
	return ro, err
}

func (t *Thread) invokeStatic(class, method string, args []Arg, retObj bool) (Value, Obj, error) {
	t.enterBoundary()
	defer t.tc.BeginExternal()
	key := ir.FuncKey(class, method)
	if t.vm.Prog.Transformed {
		if fc := t.vm.facadeOf(class); fc != nil {
			if f := t.vm.byKey[ir.FuncKey(fc.Name, method)]; f != nil {
				key = ir.FuncKey(fc.Name, method)
			}
		}
	}
	fn := t.vm.byKey[key]
	if fn == nil {
		return 0, NilObj, fmt.Errorf("vm: no function %s", key)
	}
	var vals []Value
	var v Value
	var err error
	if t.vm.Prog.Transformed {
		v, err = t.facadeCall(fn, 0, args)
	} else {
		var cleanup func()
		vals, cleanup, err = t.resolveArgs(args)
		if err != nil {
			return 0, NilObj, err
		}
		defer cleanup()
		v, err = t.exec(fn, vals)
	}
	if err != nil {
		return 0, NilObj, err
	}
	if retObj {
		return 0, t.wrapObj(v), nil
	}
	return v, NilObj, nil
}

// ---------------------------------------------------------------------------
// Field and array element access

func (t *Thread) fieldOf(o Obj, class, field string) (*lang.Field, Value, error) {
	if o == NilObj {
		return nil, 0, errNPE("boundary field access " + field)
	}
	c := t.vm.Prog.H.Class(class)
	if c == nil {
		return nil, 0, fmt.Errorf("vm: unknown class %s", class)
	}
	f := c.FindField(field)
	if f == nil {
		return nil, 0, fmt.Errorf("vm: %s has no field %s", class, field)
	}
	return f, t.vm.Get(o), nil
}

// GetField reads a primitive field as a raw value.
func (t *Thread) GetField(o Obj, class, field string) (Value, error) {
	t.enterBoundary()
	defer t.tc.BeginExternal()
	f, v, err := t.fieldOf(o, class, field)
	if err != nil {
		return 0, err
	}
	if t.vm.Prog.Transformed {
		b, err := t.record(offheap.PageRef(v))
		if err != nil {
			return 0, err
		}
		return loadSlot(b[offheap.ScalarHeader+f.Offset:], f.Type.Kind), nil
	}
	b := t.vm.Heap.Bytes(heap.Addr(v))
	return loadSlot(b[heap.ScalarHeader+f.Offset:], f.Type.Kind), nil
}

// ArrLen returns the length of a data array.
func (t *Thread) ArrLen(o Obj) (int, error) {
	t.enterBoundary()
	defer t.tc.BeginExternal()
	if o == NilObj {
		return 0, errNPE("array length")
	}
	v := t.vm.Get(o)
	if t.vm.Prog.Transformed {
		b, err := t.record(offheap.PageRef(v))
		if err != nil {
			return 0, err
		}
		return offheap.ArrayLength(b), nil
	}
	return heap.ArrayLength(t.vm.Heap.Bytes(heap.Addr(v))), nil
}

// ArrGet reads element i of a data array as a raw value.
func (t *Thread) ArrGet(o Obj, i int) (Value, error) {
	t.enterBoundary()
	defer t.tc.BeginExternal()
	v := t.vm.Get(o)
	if t.vm.Prog.Transformed {
		b, err := t.record(offheap.PageRef(v))
		if err != nil {
			return 0, err
		}
		idx, _ := offheap.ArrayType(offheap.TypeWord(b))
		elem := t.vm.RT.ArrayElemType(idx)
		if n := offheap.ArrayLength(b); i < 0 || i >= n {
			return 0, errBounds(i, n)
		}
		return loadSlot(b[offheap.ArrayHeader+i*elem.FieldSize():], elem.Kind), nil
	}
	hp, a := t.vm.Heap, heap.Addr(v)
	elem, b := hp.ArrayElemOf(a), hp.Bytes(a)
	if n := heap.ArrayLength(b); i < 0 || i >= n {
		return 0, errBounds(i, n)
	}
	return loadSlot(b[heap.ArrayHeader+i*elem.FieldSize():], elem.Kind), nil
}

// record resolves a page reference the way run's page ops do: Bytes, and
// Fault for as long as the page is on disk. The caller holds no other
// record's bytes, since Fault may spill them; one that does uses Resident.
func (t *Thread) record(ref offheap.PageRef) ([]byte, error) {
	for {
		if b := t.vm.RT.Bytes(ref); b != nil {
			return b, nil
		}
		if err := t.vm.RT.Fault(ref, parker{t}); err != nil {
			return nil, err
		}
	}
}

// ArrGetObj reads a reference element into a handle.
func (t *Thread) ArrGetObj(o Obj, i int) (Obj, error) {
	v, err := t.ArrGet(o, i)
	if err != nil {
		return NilObj, err
	}
	t.enterBoundary()
	defer t.tc.BeginExternal()
	return t.wrapObj(v), nil
}

func f64bits(f float64) Value { return math.Float64bits(f) }

// ---------------------------------------------------------------------------
// Bulk array transfer. Load paths move whole shards/partitions across the
// boundary; element-at-a-time handle calls would dominate, so these
// helpers encode straight into (and decode straight out of) the array body
// in one call — both representations use little-endian layouts with
// identical element sizes.

// withArrBody runs fn over the first n body bytes of a data array, in
// place: the record body for P', the heap object body for P. The view is
// only valid inside fn, and fn must not allocate or reach a safepoint:
// either could move the heap object (a collection) or the page (a spill).
func (t *Thread) withArrBody(o Obj, n int, fn func(body []byte)) error {
	t.enterBoundary()
	defer t.tc.BeginExternal()
	v := t.vm.Get(o)
	if t.vm.Prog.Transformed {
		b, err := t.record(offheap.PageRef(v))
		if err != nil {
			return err
		}
		fn(b[offheap.ArrayHeader : offheap.ArrayHeader+n])
		return nil
	}
	fn(t.vm.Heap.Bytes(heap.Addr(v))[heap.ArrayHeader : heap.ArrayHeader+n])
	return nil
}

// NewIntArr builds an int[] data array initialized from vals.
func (t *Thread) NewIntArr(vals []int32) (Obj, error) {
	o, err := t.NewArr("int", len(vals))
	if err != nil {
		return NilObj, err
	}
	return o, t.withArrBody(o, 4*len(vals), func(b []byte) {
		for i, v := range vals {
			binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
		}
	})
}

// NewDoubleArr builds a double[] data array initialized from vals.
func (t *Thread) NewDoubleArr(vals []float64) (Obj, error) {
	o, err := t.NewArr("double", len(vals))
	if err != nil {
		return NilObj, err
	}
	return o, t.withArrBody(o, 8*len(vals), func(b []byte) {
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
	})
}

// NewByteArr builds a byte[] data array initialized from vals.
func (t *Thread) NewByteArr(vals []byte) (Obj, error) {
	o, err := t.NewArr("byte", len(vals))
	if err != nil {
		return NilObj, err
	}
	return o, t.withArrBody(o, len(vals), func(b []byte) { copy(b, vals) })
}

// ReadByteArr copies a byte[] data array out to Go.
func (t *Thread) ReadByteArr(o Obj) ([]byte, error) {
	n, err := t.ArrLen(o)
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	return out, t.withArrBody(o, n, func(b []byte) { copy(out, b) })
}

// ReadIntArr copies an int[] data array out to Go.
func (t *Thread) ReadIntArr(o Obj) ([]int32, error) {
	n, err := t.ArrLen(o)
	if err != nil {
		return nil, err
	}
	out := make([]int32, n)
	return out, t.withArrBody(o, 4*n, func(b []byte) {
		for i := range out {
			out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
		}
	})
}

// ReadDoubleArr copies a double[] data array out to Go.
func (t *Thread) ReadDoubleArr(o Obj) ([]float64, error) {
	n, err := t.ArrLen(o)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	return out, t.withArrBody(o, 8*n, func(b []byte) {
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	})
}

// resolveArgs materializes boundary arguments for the untransformed
// (managed heap) paths in two passes: strings are converted first (they
// allocate, and an allocation may move previously resolved references),
// then every reference is read out of its handle with no allocation in
// between. The returned cleanup drops temporary string handles.
func (t *Thread) resolveArgs(args []Arg) ([]Value, func(), error) {
	var temps []Handle
	cleanup := func() {
		for _, h := range temps {
			t.vm.Drop(h)
		}
	}
	resolved := make([]Arg, len(args))
	copy(resolved, args)
	for i, a := range resolved {
		if a.kind == 's' {
			v, err := t.makeString(a.s)
			if err != nil {
				cleanup()
				return nil, nil, err
			}
			h := t.wrapObj(v)
			temps = append(temps, h)
			resolved[i] = O(h)
		}
	}
	vals := make([]Value, len(resolved))
	for i, a := range resolved {
		v, err := t.argValue(a)
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		vals[i] = v
	}
	return vals, cleanup, nil
}
