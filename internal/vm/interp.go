package vm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/heap"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/offheap"
)

// Runtime error constructors, mirroring the JVM exceptions FJ programs can
// trigger. FJ has no catch; these unwind to the Call boundary as Go
// errors.
func errNPE(what string) error { return fmt.Errorf("NullPointerException: %s", what) }

func errBounds(i, n int) error {
	return fmt.Errorf("ArrayIndexOutOfBoundsException: index %d, length %d", i, n)
}

// IsOOM classifies memory exhaustion — real or injected — across both
// memory systems: the managed heap's sentinel, the page store's typed
// exhaustion error (page quotas wrap it), and the FJ-level
// OutOfMemoryError text of errors that crossed a string boundary. The
// engines recover from these; anything else is a genuine bug and
// propagates.
func IsOOM(err error) bool {
	return err != nil && (errors.Is(err, heap.ErrOutOfMemory) ||
		errors.Is(err, offheap.ErrPageExhausted) ||
		strings.Contains(err.Error(), "OutOfMemoryError"))
}

// exec interprets fn with the given arguments and returns its raw result.
// It is the boundary entry path (Thread.Call); interpreted call
// instructions take the leaner callFn path, which copies arguments
// caller-register -> callee-register without building an argument slice.
func (t *Thread) exec(fn *ir.Func, args []Value) (Value, error) {
	if len(args) != len(fn.Params) {
		return 0, fmt.Errorf("vm: %s expects %d args, got %d", fn.Name, len(fn.Params), len(args))
	}
	if t.stack == nil {
		t.stack = t.vm.takeStack()
	}
	regs, onStack := t.allocRegs(fn.NumRegs)
	for i, p := range fn.Params {
		regs[p] = args[i]
	}
	t.frames = append(t.frames, frame{fn: fn, regs: regs})
	v, err := t.run(fn.Code, regs)
	t.frames = t.frames[:len(t.frames)-1]
	if len(t.frames) == 0 {
		t.flushObsCounters()
	}
	t.freeRegs(fn.NumRegs, onStack)
	if err != nil {
		return 0, err
	}
	return v, nil
}

// callFn dispatches an interpreted call: the callee's register window comes
// from the thread stack, arguments are copied directly from the caller's
// registers, and the frame is pushed by value into reserved capacity — the
// hot call path allocates nothing. The linker has checked that args (and
// the receiver) are as many as the callee's parameters.
func (t *Thread) callFn(callee *ir.Func, regs []Value, args []ir.Reg, recv Value, hasRecv bool) (Value, error) {
	params := callee.Params
	cregs, onStack := t.allocRegs(callee.NumRegs)
	pi := 0
	if hasRecv {
		cregs[params[0]] = recv
		pi = 1
	}
	for _, r := range args {
		cregs[params[pi]] = regs[r]
		pi++
	}
	t.frames = append(t.frames, frame{fn: callee, regs: cregs})
	v, err := t.run(callee.Code, cregs)
	t.frames = t.frames[:len(t.frames)-1]
	t.freeRegs(callee.NumRegs, onStack)
	return v, err
}

// run interprets one activation of c until it returns: a pc loop over the
// function's execution form (lower.go), one switch level, every operand
// pre-decoded. A slot that can trap, call or do cold work reads its
// ir.Instr through c.Src[pc-1] (pc has already stepped past it). Control
// slots count the IR instructions of the block they enter, so
// vm.instructions is the IR count whatever was fused, and poll the GC
// safepoint and vm.cancel on backward edges only — every loop must take
// one, so GC latency is unchanged while forward branches skip the atomic
// loads. Calls poll too.
func (t *Thread) run(c *ir.Code, regs []Value) (Value, error) {
	vm := t.vm
	hp := vm.Heap
	rt := vm.RT
	code := c.Slots
	t.instrs += int64(c.Entry)
	pc := 0
	// The control slots leave their chosen edge here and meet at edge.
	var tgt int32
	var cnt uint16
	for {
		in := &code[pc]
		pc++
		switch in.Op {
		case xConst:
			regs[in.Dst] = Value(in.Imm)
		case xMove:
			regs[in.Dst] = regs[in.A]

		case xAddI32:
			regs[in.Dst] = Value(uint32(int32(regs[in.A]) + int32(regs[in.B])))
		case xSubI32:
			regs[in.Dst] = Value(uint32(int32(regs[in.A]) - int32(regs[in.B])))
		case xMulI32:
			regs[in.Dst] = Value(uint32(int32(regs[in.A]) * int32(regs[in.B])))
		case xDivI32:
			y := int32(regs[in.B])
			if y == 0 {
				return 0, fmt.Errorf("ArithmeticException: / by zero")
			}
			regs[in.Dst] = Value(uint32(int32(regs[in.A]) / y))
		case xRemI32:
			y := int32(regs[in.B])
			if y == 0 {
				return 0, fmt.Errorf("ArithmeticException: %% by zero")
			}
			regs[in.Dst] = Value(uint32(int32(regs[in.A]) % y))
		case xAndI32:
			regs[in.Dst] = Value(uint32(int32(regs[in.A]) & int32(regs[in.B])))
		case xOrI32:
			regs[in.Dst] = Value(uint32(int32(regs[in.A]) | int32(regs[in.B])))
		case xXorI32:
			regs[in.Dst] = Value(uint32(int32(regs[in.A]) ^ int32(regs[in.B])))
		case xShlI32:
			regs[in.Dst] = Value(uint32(int32(regs[in.A]) << (uint32(regs[in.B]) & 31)))
		case xShrI32:
			regs[in.Dst] = Value(uint32(int32(regs[in.A]) >> (uint32(regs[in.B]) & 31)))
		case xLtI32:
			regs[in.Dst] = boolVal(int32(regs[in.A]) < int32(regs[in.B]))
		case xLeI32:
			regs[in.Dst] = boolVal(int32(regs[in.A]) <= int32(regs[in.B]))
		case xGtI32:
			regs[in.Dst] = boolVal(int32(regs[in.A]) > int32(regs[in.B]))
		case xGeI32:
			regs[in.Dst] = boolVal(int32(regs[in.A]) >= int32(regs[in.B]))
		case xEqI32:
			regs[in.Dst] = boolVal(int32(regs[in.A]) == int32(regs[in.B]))
		case xNeI32:
			regs[in.Dst] = boolVal(int32(regs[in.A]) != int32(regs[in.B]))

		case xAddI64:
			regs[in.Dst] = regs[in.A] + regs[in.B]
		case xSubI64:
			regs[in.Dst] = regs[in.A] - regs[in.B]
		case xMulI64:
			regs[in.Dst] = regs[in.A] * regs[in.B]
		case xDivI64:
			y := int64(regs[in.B])
			if y == 0 {
				return 0, fmt.Errorf("ArithmeticException: / by zero")
			}
			regs[in.Dst] = Value(int64(regs[in.A]) / y)
		case xRemI64:
			y := int64(regs[in.B])
			if y == 0 {
				return 0, fmt.Errorf("ArithmeticException: %% by zero")
			}
			regs[in.Dst] = Value(int64(regs[in.A]) % y)
		case xAndI64:
			regs[in.Dst] = regs[in.A] & regs[in.B]
		case xOrI64:
			regs[in.Dst] = regs[in.A] | regs[in.B]
		case xXorI64:
			regs[in.Dst] = regs[in.A] ^ regs[in.B]
		case xShlI64:
			regs[in.Dst] = regs[in.A] << (regs[in.B] & 63)
		case xShrI64:
			regs[in.Dst] = Value(int64(regs[in.A]) >> (regs[in.B] & 63))
		case xLtI64:
			regs[in.Dst] = boolVal(int64(regs[in.A]) < int64(regs[in.B]))
		case xLeI64:
			regs[in.Dst] = boolVal(int64(regs[in.A]) <= int64(regs[in.B]))
		case xGtI64:
			regs[in.Dst] = boolVal(int64(regs[in.A]) > int64(regs[in.B]))
		case xGeI64:
			regs[in.Dst] = boolVal(int64(regs[in.A]) >= int64(regs[in.B]))
		case xEqI64:
			regs[in.Dst] = boolVal(regs[in.A] == regs[in.B])
		case xNeI64:
			regs[in.Dst] = boolVal(regs[in.A] != regs[in.B])

		case xAddF64:
			regs[in.Dst] = math.Float64bits(math.Float64frombits(regs[in.A]) + math.Float64frombits(regs[in.B]))
		case xSubF64:
			regs[in.Dst] = math.Float64bits(math.Float64frombits(regs[in.A]) - math.Float64frombits(regs[in.B]))
		case xMulF64:
			regs[in.Dst] = math.Float64bits(math.Float64frombits(regs[in.A]) * math.Float64frombits(regs[in.B]))
		case xDivF64:
			regs[in.Dst] = math.Float64bits(math.Float64frombits(regs[in.A]) / math.Float64frombits(regs[in.B]))
		case xLtF64:
			regs[in.Dst] = boolVal(math.Float64frombits(regs[in.A]) < math.Float64frombits(regs[in.B]))
		case xLeF64:
			regs[in.Dst] = boolVal(math.Float64frombits(regs[in.A]) <= math.Float64frombits(regs[in.B]))
		case xGtF64:
			regs[in.Dst] = boolVal(math.Float64frombits(regs[in.A]) > math.Float64frombits(regs[in.B]))
		case xGeF64:
			regs[in.Dst] = boolVal(math.Float64frombits(regs[in.A]) >= math.Float64frombits(regs[in.B]))
		case xEqF64:
			regs[in.Dst] = boolVal(math.Float64frombits(regs[in.A]) == math.Float64frombits(regs[in.B]))
		case xNeF64:
			regs[in.Dst] = boolVal(math.Float64frombits(regs[in.A]) != math.Float64frombits(regs[in.B]))

		case xNegI32:
			regs[in.Dst] = Value(uint32(-int32(regs[in.A])))
		case xNegI64:
			regs[in.Dst] = -regs[in.A]
		case xNegF64:
			regs[in.Dst] = math.Float64bits(-math.Float64frombits(regs[in.A]))
		case xNot:
			regs[in.Dst] = boolVal(regs[in.A] == 0)
		case xConv:
			regs[in.Dst] = evalConv(ir.NumKind(in.B), ir.NumKind(in.C), regs[in.A])

		case xAddI32Imm:
			regs[in.B] = Value(in.Imm)
			regs[in.Dst] = Value(uint32(int32(regs[in.A]) + int32(in.Imm)))
		case xAddI32ImmJmp:
			regs[in.B] = Value(in.Imm)
			regs[in.Dst] = Value(uint32(int32(regs[in.A]) + int32(in.Imm)))
			tgt, cnt = in.C, in.N
			goto edge
		case xMoveJmp:
			regs[in.Dst] = regs[in.A]
			tgt, cnt = in.C, in.N
			goto edge
		case xLtI32Br:
			if int32(regs[in.A]) < int32(regs[in.B]) {
				regs[in.Dst] = 1
				tgt, cnt = in.C, in.N
			} else {
				regs[in.Dst] = 0
				tgt, cnt = int32(in.Imm), in.N2
			}
			goto edge
		case xLtF64Br:
			if math.Float64frombits(regs[in.A]) < math.Float64frombits(regs[in.B]) {
				regs[in.Dst] = 1
				tgt, cnt = in.C, in.N
			} else {
				regs[in.Dst] = 0
				tgt, cnt = int32(in.Imm), in.N2
			}
			goto edge

		// --- Heap half (program P) ---
		// Each object op resolves its address once (Bytes) at the offset
		// the linker derived from the header size its opcode implies,
		// exactly as the page half below does for records; a reference
		// store adds the write barrier.
		case xNew:
			a, err := hp.AllocObject(t.tc, c.Src[pc-1].Cls)
			if err != nil {
				return 0, err
			}
			regs[in.Dst] = Value(a)
		case xLoad1:
			obj := heap.Addr(regs[in.A])
			if obj == 0 {
				return 0, errNPE("field read " + c.Src[pc-1].Field.Name)
			}
			regs[in.Dst] = load1(hp.Bytes(obj)[in.Imm:])
		case xLoad4:
			obj := heap.Addr(regs[in.A])
			if obj == 0 {
				return 0, errNPE("field read " + c.Src[pc-1].Field.Name)
			}
			regs[in.Dst] = load4(hp.Bytes(obj)[in.Imm:])
		case xLoad8:
			obj := heap.Addr(regs[in.A])
			if obj == 0 {
				return 0, errNPE("field read " + c.Src[pc-1].Field.Name)
			}
			regs[in.Dst] = load8(hp.Bytes(obj)[in.Imm:])
		case xStore1:
			obj := heap.Addr(regs[in.A])
			if obj == 0 {
				return 0, errNPE("field write " + c.Src[pc-1].Field.Name)
			}
			hp.Bytes(obj)[in.Imm] = byte(regs[in.B])
		case xStore4:
			obj := heap.Addr(regs[in.A])
			if obj == 0 {
				return 0, errNPE("field write " + c.Src[pc-1].Field.Name)
			}
			binary.LittleEndian.PutUint32(hp.Bytes(obj)[in.Imm:], uint32(regs[in.B]))
		case xStore8:
			obj := heap.Addr(regs[in.A])
			if obj == 0 {
				return 0, errNPE("field write " + c.Src[pc-1].Field.Name)
			}
			binary.LittleEndian.PutUint64(hp.Bytes(obj)[in.Imm:], regs[in.B])
		case xStoreRef:
			obj := heap.Addr(regs[in.A])
			if obj == 0 {
				return 0, errNPE("field write " + c.Src[pc-1].Field.Name)
			}
			binary.LittleEndian.PutUint64(hp.Bytes(obj)[in.Imm:], regs[in.B])
			hp.Barrier(obj+heap.Addr(in.Imm), heap.Addr(regs[in.B]))
		case xALoad1:
			arr := heap.Addr(regs[in.A])
			if arr == 0 {
				return 0, errNPE("array read")
			}
			i, b := int(int32(regs[in.B])), hp.Bytes(arr)
			if n := heap.ArrayLength(b); uint(i) >= uint(n) {
				return 0, errBounds(i, n)
			}
			regs[in.Dst] = load1(b[heap.ArrayHeader+i:])
		case xALoad4:
			arr := heap.Addr(regs[in.A])
			if arr == 0 {
				return 0, errNPE("array read")
			}
			i, b := int(int32(regs[in.B])), hp.Bytes(arr)
			if n := heap.ArrayLength(b); uint(i) >= uint(n) {
				return 0, errBounds(i, n)
			}
			regs[in.Dst] = load4(b[heap.ArrayHeader+i*4:])
		case xALoad8:
			arr := heap.Addr(regs[in.A])
			if arr == 0 {
				return 0, errNPE("array read")
			}
			i, b := int(int32(regs[in.B])), hp.Bytes(arr)
			if n := heap.ArrayLength(b); uint(i) >= uint(n) {
				return 0, errBounds(i, n)
			}
			regs[in.Dst] = load8(b[heap.ArrayHeader+i*8:])
		case xAStore1:
			arr := heap.Addr(regs[in.A])
			if arr == 0 {
				return 0, errNPE("array write")
			}
			i, b := int(int32(regs[in.B])), hp.Bytes(arr)
			if n := heap.ArrayLength(b); uint(i) >= uint(n) {
				return 0, errBounds(i, n)
			}
			b[heap.ArrayHeader+i] = byte(regs[in.C])
		case xAStore4:
			arr := heap.Addr(regs[in.A])
			if arr == 0 {
				return 0, errNPE("array write")
			}
			i, b := int(int32(regs[in.B])), hp.Bytes(arr)
			if n := heap.ArrayLength(b); uint(i) >= uint(n) {
				return 0, errBounds(i, n)
			}
			binary.LittleEndian.PutUint32(b[heap.ArrayHeader+i*4:], uint32(regs[in.C]))
		case xAStore8:
			arr := heap.Addr(regs[in.A])
			if arr == 0 {
				return 0, errNPE("array write")
			}
			i, b := int(int32(regs[in.B])), hp.Bytes(arr)
			if n := heap.ArrayLength(b); uint(i) >= uint(n) {
				return 0, errBounds(i, n)
			}
			binary.LittleEndian.PutUint64(b[heap.ArrayHeader+i*8:], regs[in.C])
		case xAStoreRef:
			arr := heap.Addr(regs[in.A])
			if arr == 0 {
				return 0, errNPE("array write")
			}
			i, b := int(int32(regs[in.B])), hp.Bytes(arr)
			if n := heap.ArrayLength(b); uint(i) >= uint(n) {
				return 0, errBounds(i, n)
			}
			binary.LittleEndian.PutUint64(b[heap.ArrayHeader+i*8:], regs[in.C])
			hp.Barrier(arr+heap.Addr(heap.ArrayHeader+i*8), heap.Addr(regs[in.C]))
		case xALen:
			arr := heap.Addr(regs[in.A])
			if arr == 0 {
				return 0, errNPE("array length")
			}
			regs[in.Dst] = Value(uint32(heap.ArrayLength(hp.Bytes(arr))))

		case xCall:
			t.tc.Safepoint()
			if p := vm.cancel.Load(); p != nil {
				return 0, *p
			}
			src := c.Src[pc-1]
			recv := heap.Addr(regs[in.A])
			if recv == 0 {
				return 0, errNPE("virtual call " + src.M.Name)
			}
			cls := hp.ClassOf(recv)
			if cls == nil {
				return 0, fmt.Errorf("vm: virtual call on array receiver")
			}
			callee := vm.vtables[cls.ID][in.Imm]
			if callee == nil {
				return 0, fmt.Errorf("vm: %s has no implementation of %s", cls.Name, src.M.Name)
			}
			v, err := t.callFn(callee, regs, src.Args, Value(recv), true)
			if err != nil {
				return 0, err
			}
			if in.Dst >= 0 {
				regs[in.Dst] = v
			}
		case xCallStatic:
			t.tc.Safepoint()
			if p := vm.cancel.Load(); p != nil {
				return 0, *p
			}
			var recv Value
			if in.A >= 0 {
				recv = regs[in.A]
			}
			v, err := t.callFn(vm.Prog.FuncList[in.Imm], regs, c.Src[pc-1].Args, recv, in.A >= 0)
			if err != nil {
				return 0, err
			}
			if in.Dst >= 0 {
				regs[in.Dst] = v
			}
		case xRet:
			return regs[in.A], nil
		case xRetVoid:
			return 0, nil
		case xNullCheck:
			if regs[in.A] == 0 {
				return 0, errNPE(c.Src[pc-1].Sym)
			}
		case xJump:
			tgt, cnt = in.C, in.N
			goto edge
		case xBranch:
			if regs[in.A] != 0 {
				tgt, cnt = in.C, in.N
			} else {
				tgt, cnt = int32(in.Imm), in.N2
			}
			goto edge
		case xSqrt:
			regs[in.Dst] = math.Float64bits(math.Sqrt(math.Float64frombits(regs[in.A])))
		case xAbs:
			regs[in.Dst] = math.Float64bits(math.Abs(math.Float64frombits(regs[in.A])))
		case xIntr:
			// I/O, iteration control, the bulk array ops: these pay the call.
			v, err := t.intrinsic(in, c.Src[pc-1], regs)
			if err != nil {
				return 0, err
			}
			if in.Dst >= 0 {
				regs[in.Dst] = v
			}

		// --- Page half (program P') ---
		// Each record op resolves its page reference exactly once, with
		// Bytes, on every store. A page on disk resolves to nil and the op
		// jumps to the fault tail below, which brings regs[in.A]'s page
		// back and runs the op again.
		case xPNew:
			ref, err := t.iter.Current().AllocRecord(parker{t}, uint16(in.A), int(in.Imm))
			if err != nil {
				return 0, err
			}
			regs[in.Dst] = Value(ref)
		case xPLoad1:
			ref := offheap.PageRef(regs[in.A])
			if ref == 0 {
				return 0, errNPE("record read " + c.Src[pc-1].Field.Name)
			}
			b := rt.Bytes(ref)
			if b == nil {
				goto fault
			}
			regs[in.Dst] = load1(b[in.Imm:])
		case xPLoad4:
			ref := offheap.PageRef(regs[in.A])
			if ref == 0 {
				return 0, errNPE("record read " + c.Src[pc-1].Field.Name)
			}
			b := rt.Bytes(ref)
			if b == nil {
				goto fault
			}
			regs[in.Dst] = load4(b[in.Imm:])
		case xPLoad8:
			ref := offheap.PageRef(regs[in.A])
			if ref == 0 {
				return 0, errNPE("record read " + c.Src[pc-1].Field.Name)
			}
			b := rt.Bytes(ref)
			if b == nil {
				goto fault
			}
			regs[in.Dst] = load8(b[in.Imm:])
		case xPStore1:
			ref := offheap.PageRef(regs[in.A])
			if ref == 0 {
				return 0, errNPE("record write " + c.Src[pc-1].Field.Name)
			}
			b := rt.Bytes(ref)
			if b == nil {
				goto fault
			}
			b[in.Imm] = byte(regs[in.B])
		case xPStore4:
			ref := offheap.PageRef(regs[in.A])
			if ref == 0 {
				return 0, errNPE("record write " + c.Src[pc-1].Field.Name)
			}
			b := rt.Bytes(ref)
			if b == nil {
				goto fault
			}
			binary.LittleEndian.PutUint32(b[in.Imm:], uint32(regs[in.B]))
		case xPStore8:
			ref := offheap.PageRef(regs[in.A])
			if ref == 0 {
				return 0, errNPE("record write " + c.Src[pc-1].Field.Name)
			}
			b := rt.Bytes(ref)
			if b == nil {
				goto fault
			}
			binary.LittleEndian.PutUint64(b[in.Imm:], regs[in.B])
		case xPALoad1:
			ref := offheap.PageRef(regs[in.A])
			if ref == 0 {
				return 0, errNPE("array record read")
			}
			i := int(int32(regs[in.B]))
			b := rt.Bytes(ref)
			if b == nil {
				goto fault
			}
			if n := offheap.ArrayLength(b); uint(i) >= uint(n) {
				return 0, errBounds(i, n)
			}
			regs[in.Dst] = load1(b[offheap.ArrayHeader+i:])
		case xPALoad4:
			ref := offheap.PageRef(regs[in.A])
			if ref == 0 {
				return 0, errNPE("array record read")
			}
			i := int(int32(regs[in.B]))
			b := rt.Bytes(ref)
			if b == nil {
				goto fault
			}
			if n := offheap.ArrayLength(b); uint(i) >= uint(n) {
				return 0, errBounds(i, n)
			}
			regs[in.Dst] = load4(b[offheap.ArrayHeader+i*4:])
		case xPALoad8:
			ref := offheap.PageRef(regs[in.A])
			if ref == 0 {
				return 0, errNPE("array record read")
			}
			i := int(int32(regs[in.B]))
			b := rt.Bytes(ref)
			if b == nil {
				goto fault
			}
			if n := offheap.ArrayLength(b); uint(i) >= uint(n) {
				return 0, errBounds(i, n)
			}
			regs[in.Dst] = load8(b[offheap.ArrayHeader+i*8:])
		case xPAStore1:
			ref := offheap.PageRef(regs[in.A])
			if ref == 0 {
				return 0, errNPE("array record write")
			}
			i := int(int32(regs[in.B]))
			b := rt.Bytes(ref)
			if b == nil {
				goto fault
			}
			if n := offheap.ArrayLength(b); uint(i) >= uint(n) {
				return 0, errBounds(i, n)
			}
			b[offheap.ArrayHeader+i] = byte(regs[in.C])
		case xPAStore4:
			ref := offheap.PageRef(regs[in.A])
			if ref == 0 {
				return 0, errNPE("array record write")
			}
			i := int(int32(regs[in.B]))
			b := rt.Bytes(ref)
			if b == nil {
				goto fault
			}
			if n := offheap.ArrayLength(b); uint(i) >= uint(n) {
				return 0, errBounds(i, n)
			}
			binary.LittleEndian.PutUint32(b[offheap.ArrayHeader+i*4:], uint32(regs[in.C]))
		case xPAStore8:
			ref := offheap.PageRef(regs[in.A])
			if ref == 0 {
				return 0, errNPE("array record write")
			}
			i := int(int32(regs[in.B]))
			b := rt.Bytes(ref)
			if b == nil {
				goto fault
			}
			if n := offheap.ArrayLength(b); uint(i) >= uint(n) {
				return 0, errBounds(i, n)
			}
			binary.LittleEndian.PutUint64(b[offheap.ArrayHeader+i*8:], regs[in.C])
		case xPALen:
			ref := offheap.PageRef(regs[in.A])
			if ref == 0 {
				return 0, errNPE("array record length")
			}
			b := rt.Bytes(ref)
			if b == nil {
				goto fault
			}
			regs[in.Dst] = Value(uint32(offheap.ArrayLength(b)))
		case xResolve:
			// Retrieve the receiver-pool facade for the record's runtime
			// type and bind it (§3.2, "Resolving types").
			ref := offheap.PageRef(regs[in.A])
			if ref == 0 {
				return 0, errNPE("resolve on null record")
			}
			b := rt.Bytes(ref)
			if b == nil {
				goto fault
			}
			tw := offheap.TypeWord(b)
			pe := t.pools[int(tw)]
			if pe == nil {
				return 0, fmt.Errorf("vm: no receiver pool for type id %d", tw)
			}
			t.bindFacade(pe.recv, ref)
			t.poolHits++
			regs[in.Dst] = pe.recv
		case xPoolGet:
			pe := t.pools[in.A]
			if pe == nil {
				return 0, fmt.Errorf("vm: no parameter pool for %s", c.Src[pc-1].Cls.Name)
			}
			t.poolHits++
			regs[in.Dst] = pe.params[in.Imm]
		case xRecvPool:
			// Devirtualized resolve (§3.6 optimization): the callee is
			// statically known, so the receiver facade comes from the
			// static type's pool without reading the record type tag.
			ref := offheap.PageRef(regs[in.A])
			if ref == 0 {
				return 0, errNPE("devirtualized call on null record")
			}
			pe := t.pools[in.B]
			if pe == nil {
				return 0, fmt.Errorf("vm: no receiver pool for %s", c.Src[pc-1].Cls.Name)
			}
			t.bindFacade(pe.recv, ref)
			t.poolHits++
			regs[in.Dst] = pe.recv

		// --- Cold operations, off the ir.Instr ---
		case xStrLit:
			a, err := t.stringLiteral(int(c.Src[pc-1].Imm))
			if err != nil {
				return 0, err
			}
			regs[in.Dst] = a
		case xNewArr:
			n := int(int32(regs[in.A]))
			if n < 0 {
				return 0, fmt.Errorf("NegativeArraySizeException: %d", n)
			}
			a, err := hp.AllocArray(t.tc, int(in.Imm), n)
			if err != nil {
				return 0, err
			}
			regs[in.Dst] = Value(a)
		case xLoadStatic:
			regs[in.Dst] = vm.statics[c.Src[pc-1].Field.StaticIndex]
		case xStoreStatic:
			vm.statics[c.Src[pc-1].Field.StaticIndex] = regs[in.A]
		case xInstOf:
			regs[in.Dst] = boolVal(t.instanceOf(heap.Addr(regs[in.A]), c.Src[pc-1].Type))
		case xCast:
			src := c.Src[pc-1]
			a := heap.Addr(regs[in.A])
			if a != 0 && !t.instanceOf(a, src.Type) {
				return 0, fmt.Errorf("ClassCastException: cannot cast to %s", src.Type)
			}
			regs[in.Dst] = regs[in.A]
		case xMonEnter:
			a := heap.Addr(regs[in.A])
			if a == 0 {
				return 0, errNPE("synchronized on null")
			}
			if err := vm.Locks.Enter(vm.Heap.LockWord(a), t, parker{t}); err != nil {
				return 0, err
			}
		case xMonExit:
			a := heap.Addr(regs[in.A])
			if a == 0 {
				return 0, errNPE("monitor exit on null")
			}
			if err := vm.Locks.Exit(vm.Heap.LockWord(a), t); err != nil {
				return 0, err
			}
		case xPNewArr:
			ref, err := t.iter.Current().AllocArray(parker{t}, int(in.Imm), c.Src[pc-1].Type.FieldSize(), int(int32(regs[in.A])))
			if err != nil {
				return 0, err
			}
			regs[in.Dst] = Value(ref)
		case xPInstOf:
			is := false
			if ref := offheap.PageRef(regs[in.A]); ref != 0 {
				b := rt.Bytes(ref)
				if b == nil {
					goto fault
				}
				is = t.recInstanceOf(offheap.TypeWord(b), c.Src[pc-1], in.Imm)
			}
			regs[in.Dst] = boolVal(is)
		case xPCast:
			if ref := offheap.PageRef(regs[in.A]); ref != 0 {
				b := rt.Bytes(ref)
				if b == nil {
					goto fault
				}
				if src := c.Src[pc-1]; !t.recInstanceOf(offheap.TypeWord(b), src, in.Imm) {
					return 0, fmt.Errorf("ClassCastException: record is not a %s", src.Cls.Name)
				}
			}
			regs[in.Dst] = regs[in.A]
		case xPMonEnter:
			ref := offheap.PageRef(regs[in.A])
			if ref == 0 {
				return 0, errNPE("synchronized on null")
			}
			b := rt.Bytes(ref)
			if b == nil {
				goto fault
			}
			if err := vm.Locks.Enter(b[2:4], t, parker{t}); err != nil {
				return 0, err
			}
		case xPMonExit:
			// The enter of the same register has trapped on null.
			b := rt.Bytes(offheap.PageRef(regs[in.A]))
			if b == nil {
				goto fault
			}
			if err := vm.Locks.Exit(b[2:4], t); err != nil {
				return 0, err
			}
		default:
			panic(fmt.Sprintf("vm: opcode %d at pc %d is not one the linker emits", in.Op, pc-1))
		}
		continue
	edge:
		if int(tgt) < pc {
			t.tc.Safepoint()
			if p := vm.cancel.Load(); p != nil {
				return 0, *p
			}
		}
		t.instrs += int64(cnt)
		pc = int(tgt)
		continue
	fault:
		// A page fault: the op's record is on disk. The op has written
		// nothing and this thread holds no record bytes, so promoting the
		// page (and spilling others with the world stopped, should that
		// cross the high watermark) is safe here; then the slot runs again.
		// Only control slots count instructions, so the restart counts none.
		if err := rt.Fault(offheap.PageRef(regs[in.A]), parker{t}); err != nil {
			return 0, err
		}
		pc--
	}
}

// instanceOf implements the heap-object subtype test.
func (t *Thread) instanceOf(a heap.Addr, target *lang.Type) bool {
	if a == 0 {
		return false
	}
	hp := t.vm.Heap
	h := t.vm.Prog.H
	if hp.IsArray(a) {
		if target.Kind == lang.TArray {
			return hp.ArrayElemOf(a).Equals(target.Elem)
		}
		return target.Kind == lang.TClass && target.Name == "Object"
	}
	cls := hp.ClassOf(a)
	switch target.Kind {
	case lang.TClass:
		tc := h.Class(target.Name)
		return tc != nil && cls.IsSubclassOf(tc)
	case lang.TIface:
		ti := h.Iface(target.Name)
		return ti != nil && cls.Implements(ti)
	}
	return false
}

// recInstanceOf implements the page-record type test on a non-null
// record's type word tw: scalar targets check the record's facade class
// against the instruction's facade class (case 7.1); array targets compare
// array type IDs (case 7.2), the target's being arr, from the slot.
func (t *Thread) recInstanceOf(tw uint16, in *ir.Instr, arr int64) bool {
	if idx, ok := offheap.ArrayType(tw); ok {
		if in.Type == nil || in.Type.Kind != lang.TArray {
			return in.Cls != nil && in.Cls.Name == "Facade"
		}
		return int64(idx) == arr
	}
	if in.Cls == nil {
		return false
	}
	return t.vm.Prog.H.ClassList[tw].IsSubclassOf(in.Cls)
}

func boolVal(b bool) Value {
	if b {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------------
// Slot access, shared by both halves and by the boundary.

// bindFacade points facade fa, an ordinary heap object, at page record ref:
// the store to Facade.pageRef that generated call sites perform (§3.2).
func (t *Thread) bindFacade(fa Value, ref offheap.PageRef) {
	b := t.vm.Heap.Bytes(heap.Addr(fa))
	storeSlot(b[heap.ScalarHeader+t.vm.pageRefField.Offset:], lang.TLong, Value(ref))
}

// loadSlot and storeSlot read and write one field or element slot of a
// resolved heap object or page record: b starts at the slot, whose position
// the caller derived from the header size its operation implies. The
// boundary uses them; run picked the width when the program was linked and
// calls load1/load4/load8 directly.
func loadSlot(b []byte, k lang.TypeKind) Value {
	switch k {
	case lang.TBool, lang.TByte:
		return load1(b)
	case lang.TInt:
		return load4(b)
	default: // long, double bits, heap and page references
		return load8(b)
	}
}

func load1(b []byte) Value { return Value(int64(int8(b[0]))) }
func load4(b []byte) Value { return Value(int64(int32(binary.LittleEndian.Uint32(b)))) }
func load8(b []byte) Value { return binary.LittleEndian.Uint64(b) }

func storeSlot(b []byte, k lang.TypeKind, v Value) {
	switch k {
	case lang.TBool, lang.TByte:
		b[0] = byte(v)
	case lang.TInt:
		binary.LittleEndian.PutUint32(b, uint32(v))
	default:
		binary.LittleEndian.PutUint64(b, v)
	}
}

// ---------------------------------------------------------------------------
// Arithmetic

func evalConv(from, to ir.NumKind, a Value) Value {
	// Normalize the source to int64 or float64.
	var i int64
	var f float64
	isF := false
	switch from {
	case ir.KByte:
		i = int64(int8(a))
	case ir.KInt:
		i = int64(int32(a))
	case ir.KLong:
		i = int64(a)
	case ir.KDouble:
		f = math.Float64frombits(a)
		isF = true
	}
	switch to {
	case ir.KByte:
		if isF {
			return Value(uint64(int8(clampToInt32(f))))
		}
		return Value(uint64(int8(i)))
	case ir.KInt:
		if isF {
			return Value(uint32(clampToInt32(f)))
		}
		return Value(uint32(int32(i)))
	case ir.KLong:
		if isF {
			return Value(clampToInt64(f))
		}
		return Value(i)
	case ir.KDouble:
		if isF {
			return a
		}
		return math.Float64bits(float64(i))
	}
	return a
}

// clampToInt64 converts a double to long with Java semantics: NaN -> 0,
// out-of-range values saturate.
func clampToInt64(f float64) int64 {
	switch {
	case math.IsNaN(f):
		return 0
	case f >= math.MaxInt64:
		return math.MaxInt64
	case f <= math.MinInt64:
		return math.MinInt64
	}
	return int64(f)
}

// clampToInt32 converts a double to int with Java semantics.
func clampToInt32(f float64) int32 {
	switch {
	case math.IsNaN(f):
		return 0
	case f >= math.MaxInt32:
		return math.MaxInt32
	case f <= math.MinInt32:
		return math.MinInt32
	}
	return int32(f)
}
