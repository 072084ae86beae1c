package vm

import (
	"fmt"
	"math"

	"repro/internal/heap"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/offheap"
)

// Execution-form opcodes (ir.Slot.Op). One opcode is one case of the
// switch in run: the machine kind, the slot width and the header size an
// ir.Instr spells out in NumKind/Sub/Type/Field are folded into the opcode
// and its immediates here, once per program. Operand conventions, unless
// an opcode's comment says otherwise: Dst, A, B, C are registers in the
// ir.Instr's roles; a control slot keeps its taken (or only) target pc in C
// and its other target in Imm, with the IR lengths of the two blocks in N
// and N2.
const (
	xInvalid uint16 = iota

	xConst // Dst = Imm (int or double bits)
	xMove

	// Binary arithmetic, Dst = A op B, over int32 (int, byte, boolean).
	xAddI32
	xSubI32
	xMulI32
	xDivI32
	xRemI32
	xAndI32
	xOrI32
	xXorI32
	xShlI32
	xShrI32
	xLtI32
	xLeI32
	xGtI32
	xGeI32
	xEqI32
	xNeI32
	// ... over int64 (long; references use its eq and ne).
	xAddI64
	xSubI64
	xMulI64
	xDivI64
	xRemI64
	xAndI64
	xOrI64
	xXorI64
	xShlI64
	xShrI64
	xLtI64
	xLeI64
	xGtI64
	xGeI64
	xEqI64
	xNeI64
	// ... over float64.
	xAddF64
	xSubF64
	xMulF64
	xDivF64
	xLtF64
	xLeF64
	xGtF64
	xGeF64
	xEqF64
	xNeF64

	xNegI32
	xNegI64
	xNegF64
	xNot
	xConv // Dst = A converted from NumKind B to NumKind C

	// Fused groups, each still writing every register its members wrote.
	xAddI32Imm    // const+bin: B = Imm; Dst = A + Imm
	xAddI32ImmJmp // const+bin+jump, the counted-loop latch: the same, then the edge in C
	xMoveJmp      // move+jump: Dst = A, then the edge in C
	xLtI32Br      // bin+branch: Dst = A < B, then the edge it selects
	xLtF64Br

	// Heap half. Imm of a field op is header + Field.Offset; the digit is
	// the slot width, Ref a reference store with its write barrier.
	xNew
	xLoad1
	xLoad4
	xLoad8
	xStore1
	xStore4
	xStore8
	xStoreRef
	xALoad1
	xALoad4
	xALoad8
	xAStore1
	xAStore4
	xAStore8
	xAStoreRef
	xALen

	xCall       // virtual: Imm = selector
	xCallStatic // Imm = callee's index in Program.FuncList
	xRet
	xRetVoid
	xNullCheck
	xJump
	xBranch // A != 0 selects C, else Imm
	xSqrt   // Dst = sqrt(A)
	xAbs
	xIntr // Imm = intrinsic index; A = fillNewRec's record type word

	// Page half.
	xPNew // A = class ID, Imm = record size
	xPLoad1
	xPLoad4
	xPLoad8
	xPStore1
	xPStore4
	xPStore8
	xPALoad1
	xPALoad4
	xPALoad8
	xPAStore1
	xPAStore4
	xPAStore8
	xPALen
	xResolve
	xPoolGet  // A = class ID, Imm = pool index
	xRecvPool // B = class ID

	// Cold operations: executed off the ir.Instr in Code.Src. An array
	// allocation's Imm is its element type's index in Program.ArrayTypes,
	// a record array test's the target's, as the type word holds them.
	xStrLit
	xNewArr
	xLoadStatic
	xStoreStatic
	xInstOf
	xCast
	xMonEnter
	xMonExit
	xPNewArr
	xPInstOf
	xPCast
	xPMonEnter
	xPMonExit

	numXops
)

// NumOpcodes bounds the opcode values: a Slot.Op is in 1..NumOpcodes-1.
const NumOpcodes = int(numXops)

// binOps maps a machine-kind class and an ir.Sub to the binary opcode;
// zero marks a combination no program may contain.
var binOps = [3][ir.BinNe + 1]uint16{
	{xAddI32, xSubI32, xMulI32, xDivI32, xRemI32, xAndI32, xOrI32, xXorI32, xShlI32, xShrI32, xLtI32, xLeI32, xGtI32, xGeI32, xEqI32, xNeI32},
	{xAddI64, xSubI64, xMulI64, xDivI64, xRemI64, xAndI64, xOrI64, xXorI64, xShlI64, xShrI64, xLtI64, xLeI64, xGtI64, xGeI64, xEqI64, xNeI64},
	{ir.BinAdd: xAddF64, ir.BinSub: xSubF64, ir.BinMul: xMulF64, ir.BinDiv: xDivF64, ir.BinLt: xLtF64, ir.BinLe: xLeF64, ir.BinGt: xGtF64, ir.BinGe: xGeF64, ir.BinEq: xEqF64, ir.BinNe: xNeF64},
}

// binOp returns the opcode of an OpBin, or zero.
func binOp(in *ir.Instr) uint16 {
	if in.Sub > ir.BinNe {
		return 0
	}
	switch in.NumKind {
	case ir.KInt, ir.KByte, ir.KBool:
		return binOps[0][in.Sub]
	case ir.KLong:
		return binOps[1][in.Sub]
	case ir.KDouble:
		return binOps[2][in.Sub]
	case ir.KRef:
		if in.Sub == ir.BinEq || in.Sub == ir.BinNe {
			return binOps[1][in.Sub]
		}
	}
	return 0
}

// coldOps names the execution opcode of every ir.Op that run executes off
// the side table, operands as in the ir.Instr.
var coldOps = [ir.NumOps]uint16{
	ir.OpStrLit: xStrLit, ir.OpNewArr: xNewArr,
	ir.OpLoadStatic: xLoadStatic, ir.OpStoreStatic: xStoreStatic,
	ir.OpInstOf: xInstOf, ir.OpCast: xCast,
	ir.OpMonEnter: xMonEnter, ir.OpMonExit: xMonExit,
	ir.OpPNewArr: xPNewArr, ir.OpPInstOf: xPInstOf, ir.OpPCast: xPCast,
	ir.OpPMonEnter: xPMonEnter, ir.OpPMonExit: xPMonExit,
}

// widthOp picks the 1-, 4- or 8-byte variant of a slot access; the three
// follow base in the opcode numbering.
func widthOp(base uint16, t *lang.Type) uint16 {
	switch t.FieldSize() {
	case 1:
		return base
	case 4:
		return base + 1
	}
	return base + 2
}

// edges reports how many control edges a slot of opcode op carries: its
// targets are in C (one) or in C and Imm (two).
func edges(op uint16) int {
	switch op {
	case xJump, xAddI32ImmJmp, xMoveJmp:
		return 1
	case xBranch, xLtI32Br, xLtF64Br:
		return 2
	}
	return 0
}

// lowerProgram builds the execution form of every function of the VM's
// program. It runs once per program (LinkInstrs); everything it reads off
// the VM — selectors, vtables, byKey — is a pure function of the program.
// Every check on a program's shape lives here, so that a malformed program
// fails vm.New and run needs none.
func (vm *VM) lowerProgram() error {
	arrTypes, err := newArrayTable(arrayElems(vm.Prog))
	if err != nil {
		return err
	}
	vm.Prog.ArrayTypes = arrTypes
	index := make(map[*ir.Func]int64, len(vm.Prog.FuncList))
	for i, f := range vm.Prog.FuncList {
		index[f] = int64(i)
	}
	for _, f := range vm.Prog.FuncList {
		code, err := vm.lowerFunc(f, index)
		if err != nil {
			return err
		}
		f.Code = code
	}
	return nil
}

// byteArr is the table index of byte, the element type of every string's
// array: arrayElems lists it first.
const byteArr = 0

// arrayElems lists every array element type p names: byte and the other
// primitives, which the boundary may allocate arrays of, then the element
// types of the arrays in field, register and instruction types and the
// elements newarr and pnewarr allocate, in program order.
func arrayElems(p *ir.Program) []*lang.Type {
	elems := []*lang.Type{lang.ByteType, lang.BoolType, lang.IntType, lang.LongType, lang.DoubleType}
	add := func(t *lang.Type) {
		for ; t != nil && t.Kind == lang.TArray; t = t.Elem {
			elems = append(elems, t.Elem)
		}
	}
	for _, c := range p.H.ClassList {
		for _, f := range c.AllFields {
			add(f.Type)
		}
		for _, f := range c.Statics {
			add(f.Type)
		}
	}
	for _, f := range p.FuncList {
		for _, t := range f.RegTypes {
			add(t)
		}
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if (in.Op == ir.OpNewArr || in.Op == ir.OpPNewArr) && in.Type != nil {
					elems = append(elems, in.Type)
				}
				add(in.Type)
			}
		}
	}
	return elems
}

// newArrayTable builds a program's array type table over elems. A record's
// type word holds the index in 14 bits, so a table past that fails.
func newArrayTable(elems []*lang.Type) (*lang.ArrayTypes, error) {
	t := lang.NewArrayTypes(elems)
	if t.Len() > offheap.MaxArrayTypes {
		return nil, fmt.Errorf("vm: %w: the program names %d, a record's type word holds %d",
			offheap.ErrTooManyArrayTypes, t.Len(), offheap.MaxArrayTypes)
	}
	return t, nil
}

func (vm *VM) lowerFunc(f *ir.Func, index map[*ir.Func]int64) (*ir.Code, error) {
	if len(f.Blocks) == 0 {
		return nil, fmt.Errorf("vm: %s: no blocks", f.Name)
	}
	n := f.NumInstrs()
	c := &ir.Code{
		Slots: make([]ir.Slot, 0, n),
		Src:   make([]*ir.Instr, 0, n),
		Entry: len(f.Blocks[0].Instrs),
	}
	start := make([]int32, len(f.Blocks))
	var control []int // pcs of the control slots, targets still block indices
	for bi, b := range f.Blocks {
		ins := b.Instrs
		if len(ins) > math.MaxUint16 {
			return nil, fmt.Errorf("vm: %s: block b%d has %d instructions, over the count field's %d", f.Name, bi, len(ins), math.MaxUint16)
		}
		if len(ins) == 0 {
			return nil, fmt.Errorf("vm: %s: fell off block b%d", f.Name, bi)
		}
		if last := ins[len(ins)-1].Op; last != ir.OpRet && last != ir.OpJump && last != ir.OpBranch {
			return nil, fmt.Errorf("vm: %s: %s: fell off block b%d", f.Name, ins[len(ins)-1].Pos, bi)
		}
		start[bi] = int32(len(c.Slots))
		for i := 0; i < len(ins); {
			s, took := fuse(ins[i:])
			if took == 0 {
				var err error
				if s, err = vm.lowerInstr(f, &ins[i], index); err != nil {
					return nil, err
				}
				took = 1
			}
			i += took
			if s.Op == xInvalid { // a nop: counted in its block's length, never dispatched
				continue
			}
			if edges(s.Op) > 0 {
				control = append(control, len(c.Slots))
			}
			c.Slots = append(c.Slots, s)
			c.Src = append(c.Src, &ins[i-1])
		}
	}
	// Resolve the control edges: blocks are laid out in order, so a target
	// pc at or below a slot's own pc is a back edge, exactly when the
	// target block's index is at or below the slot's block's.
	target := func(pc int, blk int64) (int32, uint16, error) {
		if blk < 0 || blk >= int64(len(f.Blocks)) {
			return 0, 0, fmt.Errorf("vm: %s: %s: branch to missing block b%d", f.Name, c.Src[pc].Pos, blk)
		}
		return start[blk], uint16(len(f.Blocks[blk].Instrs)), nil
	}
	for _, pc := range control {
		s := &c.Slots[pc]
		var err error
		if s.C, s.N, err = target(pc, int64(s.C)); err != nil {
			return nil, err
		}
		if edges(s.Op) == 2 {
			var t2 int32
			if t2, s.N2, err = target(pc, s.Imm); err != nil {
				return nil, err
			}
			s.Imm = int64(t2)
		}
	}
	return c, nil
}

// fuse recognises the instruction groups that lower to one slot and
// reports how many IR instructions the slot covers (zero: none, lower
// ins[0] alone). The set is the pairs a dynamic histogram of the engine
// workloads puts above a few percent of all instructions
// (docs/PERFORMANCE.md, "Interpreter dispatch"): the counted-loop latch
// i = i + k; goto header, with or without its goto, the move-and-goto latch
// of programs whose induction variable is not coalesced, and the int and
// double compare-and-branch. A fused slot writes every register its members
// wrote, in their order, so it needs no liveness argument, and none of its
// members can trap.
func fuse(ins []ir.Instr) (ir.Slot, int) {
	if len(ins) < 2 {
		return ir.Slot{}, 0
	}
	a, b := &ins[0], &ins[1]
	switch {
	case a.Op == ir.OpConst && b.Op == ir.OpBin && b.B == a.Dst && binOp(b) == xAddI32:
		s := ir.Slot{Op: xAddI32Imm, Dst: int32(b.Dst), A: int32(b.A), B: int32(a.Dst), Imm: a.Imm}
		if len(ins) > 2 && ins[2].Op == ir.OpJump {
			s.Op, s.C = xAddI32ImmJmp, int32(ins[2].Blk)
			return s, 3
		}
		return s, 2
	case a.Op == ir.OpMove && b.Op == ir.OpJump:
		return ir.Slot{Op: xMoveJmp, Dst: int32(a.Dst), A: int32(a.A), C: int32(b.Blk)}, 2
	case a.Op == ir.OpBin && b.Op == ir.OpBranch && b.A == a.Dst:
		s := ir.Slot{Dst: int32(a.Dst), A: int32(a.A), B: int32(a.B), C: int32(b.Blk), Imm: int64(b.Blk2)}
		switch binOp(a) {
		case xLtI32:
			s.Op = xLtI32Br
		case xLtF64:
			s.Op = xLtF64Br
		default:
			return ir.Slot{}, 0
		}
		return s, 2
	}
	return ir.Slot{}, 0
}

// lowerInstr lowers one instruction to one slot (none, Op xInvalid, for a
// nop) and checks what run relies on: a known opcode, kind and intrinsic, a
// callee that exists, and as many arguments as every possible callee has
// parameters.
func (vm *VM) lowerInstr(f *ir.Func, in *ir.Instr, index map[*ir.Func]int64) (ir.Slot, error) {
	s := ir.Slot{Dst: int32(in.Dst), A: int32(in.A), B: int32(in.B), C: int32(in.C)}
	bad := func(format string, args ...any) (ir.Slot, error) {
		return ir.Slot{}, fmt.Errorf("vm: %s: %s: %s", f.Name, in.Pos, fmt.Sprintf(format, args...))
	}
	if int(in.Op) < len(coldOps) && coldOps[in.Op] != 0 {
		s.Op = coldOps[in.Op]
		// An array allocation or record array test carries its element
		// type's table index, which arrayElems entered.
		var elem *lang.Type
		switch {
		case in.Op == ir.OpNewArr || in.Op == ir.OpPNewArr:
			if elem = in.Type; elem == nil {
				return bad("%s without an element type", in.Op)
			}
		case (in.Op == ir.OpPInstOf || in.Op == ir.OpPCast) && in.Type != nil && in.Type.Kind == lang.TArray:
			elem = in.Type.Elem
		}
		if elem != nil {
			i, _ := vm.Prog.ArrayTypes.Index(elem.String())
			s.Imm = int64(i)
		}
		return s, nil
	}
	switch in.Op {
	case ir.OpNop:
	case ir.OpConst:
		s.Op, s.Imm = xConst, in.Imm // a double's bits, as the register holds it
	case ir.OpMove:
		s.Op = xMove
	case ir.OpBin:
		if s.Op = binOp(in); s.Op == 0 {
			return bad("bad binary op %s on %s", in.Sub, in.NumKind)
		}
	case ir.OpUn:
		switch {
		case in.Sub == ir.UnNot:
			s.Op = xNot
		case in.Sub == ir.UnNeg && (in.NumKind == ir.KInt || in.NumKind == ir.KByte):
			s.Op = xNegI32
		case in.Sub == ir.UnNeg && in.NumKind == ir.KLong:
			s.Op = xNegI64
		case in.Sub == ir.UnNeg && in.NumKind == ir.KDouble:
			s.Op = xNegF64
		default:
			return bad("bad unary op %s on %s", in.Sub, in.NumKind)
		}
	case ir.OpConv:
		s.Op, s.B, s.C = xConv, int32(in.NumKind), int32(in.NumKind2)

	case ir.OpNew:
		s.Op = xNew
	case ir.OpLoad:
		s.Op, s.Imm = widthOp(xLoad1, in.Field.Type), int64(heap.ScalarHeader+in.Field.Offset)
	case ir.OpStore:
		s.Op, s.Imm = widthOp(xStore1, in.Field.Type), int64(heap.ScalarHeader+in.Field.Offset)
		if in.Field.Type.IsRef() {
			s.Op = xStoreRef
		}
	case ir.OpALoad:
		s.Op = widthOp(xALoad1, in.Type)
	case ir.OpAStore:
		s.Op = widthOp(xAStore1, in.Type)
		if in.Type.IsRef() {
			s.Op = xAStoreRef
		}
	case ir.OpALen:
		s.Op = xALen

	case ir.OpCall:
		sel, ok := vm.selectors[in.M.Name]
		if !ok {
			return bad("no selector for %s", in.M.Name)
		}
		// Any class's implementation may be the callee unless the method's
		// owner rules the class out; an arity mismatch is rare enough that
		// the owner test runs only after one is found.
		for _, cls := range vm.Prog.H.ClassList {
			callee := vm.vtables[cls.ID][sel]
			if callee == nil || len(callee.Params) == len(in.Args)+1 {
				continue
			}
			if in.M.Owner != nil && !cls.IsSubclassOf(in.M.Owner) || in.M.OwnerIface != nil && !cls.Implements(in.M.OwnerIface) {
				continue
			}
			return bad("%s expects %d args, got %d", callee.Name, len(callee.Params), len(in.Args)+1)
		}
		s.Op, s.Imm = xCall, int64(sel)
	case ir.OpCallStatic:
		key := calleeKey(in.M)
		callee := vm.byKey[key]
		if callee == nil {
			return bad("missing callee %s", key)
		}
		got := len(in.Args)
		if in.A != ir.NoReg {
			got++
		}
		if got != len(callee.Params) {
			return bad("%s expects %d args, got %d", callee.Name, len(callee.Params), got)
		}
		s.Op, s.Imm = xCallStatic, index[callee]
	case ir.OpRet:
		s.Op = xRet
		if in.A == ir.NoReg {
			s.Op = xRetVoid
		}
	case ir.OpNullCheck:
		s.Op = xNullCheck
	case ir.OpJump:
		s.Op, s.C = xJump, int32(in.Blk)
	case ir.OpBranch:
		s.Op, s.C, s.Imm = xBranch, int32(in.Blk), int64(in.Blk2)
	case ir.OpIntr:
		intr, ok := intrinsics[in.Sym]
		if !ok {
			return bad("unknown intrinsic %s", in.Sym)
		}
		want := intr.args
		if want == perClass {
			if in.Cls == nil {
				return bad("intrinsic %s without a class", in.Sym)
			}
			for _, f := range in.Cls.AllFields {
				if f.Type.IsRef() {
					return bad("intrinsic %s of %s: field %s is a reference", in.Sym, in.Cls.Name, f.Name)
				}
			}
			want = 2 + len(in.Cls.AllFields)
		}
		if len(in.Args) != want {
			return bad("intrinsic %s expects %d args, got %d", in.Sym, want, len(in.Args))
		}
		s.Op, s.Imm = xIntr, int64(intr.index)
		if intr.index == inFillNewRec {
			// The records' type word, as a pnew's: the facade class of Cls.
			fc := vm.Prog.H.Class(ir.FacadeName(in.Cls.Name))
			if fc == nil {
				return bad("intrinsic %s: no facade class for %s", in.Sym, in.Cls.Name)
			}
			s.A = int32(fc.ID)
		}
		// The pure-math intrinsics the engines' inner loops call run inline.
		switch {
		case in.Dst == ir.NoReg:
		case intr.index == inSqrt:
			s.Op, s.A = xSqrt, int32(in.Args[0])
		case intr.index == inAbs:
			s.Op, s.A = xAbs, int32(in.Args[0])
		}

	case ir.OpPNew:
		s.Op, s.A, s.Imm = xPNew, int32(in.Cls.ID), in.Imm
	case ir.OpPLoad:
		s.Op, s.Imm = widthOp(xPLoad1, in.Field.Type), int64(offheap.ScalarHeader+in.Field.Offset)
	case ir.OpPStore:
		s.Op, s.Imm = widthOp(xPStore1, in.Field.Type), int64(offheap.ScalarHeader+in.Field.Offset)
	case ir.OpPALoad:
		s.Op = widthOp(xPALoad1, in.Type)
	case ir.OpPAStore:
		s.Op = widthOp(xPAStore1, in.Type)
	case ir.OpPALen:
		s.Op = xPALen
	case ir.OpResolve:
		s.Op = xResolve
	case ir.OpPoolGet:
		s.Op, s.A, s.Imm = xPoolGet, int32(in.Cls.ID), in.Imm
	case ir.OpRecvPool:
		s.Op, s.B = xRecvPool, int32(in.Cls.ID)
	default:
		return bad("unimplemented op %s", in.Op)
	}
	return s, nil
}
