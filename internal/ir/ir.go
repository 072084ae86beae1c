// Package ir defines the typed register-based intermediate representation
// that FJ programs are lowered to, the FACADE transform rewrites, and the VM
// interprets. It plays the role Jimple plays for the paper's Soot-based
// compiler: a three-address IR over a control-flow graph, with explicit
// field offsets and static types on every virtual register.
//
// The instruction set has two halves:
//
//   - the "object" half (OpNew, OpLoad, OpStore, ...) operates on managed
//     heap objects and is what lowering emits for program P;
//   - the "page" half (OpPNew, OpPLoad, OpResolve, OpPoolGet, ...) operates
//     on off-heap page records through 64-bit page references and is what
//     the FACADE transform emits for program P'.
//
// Facade objects themselves are ordinary heap objects, so binding a page
// reference to a facade is a plain OpStore of the Facade.pageRef field.
package ir

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/lang"
)

// Reg identifies a virtual register within a function. NoReg means absent.
type Reg int32

// NoReg marks an absent register operand.
const NoReg Reg = -1

// Op is an instruction opcode.
type Op uint8

// Opcodes.
const (
	OpNop Op = iota

	// Values and arithmetic.
	OpConst  // Dst = Imm (a KDouble constant holds its value's bits)
	OpStrLit // Dst = interned String for StringPool[Imm]
	OpMove   // Dst = A
	OpBin    // Dst = A <Sub> B, numeric kind in NumKind
	OpUn     // Dst = <Sub> A
	OpConv   // Dst = numeric conversion of A (NumKind=src kind, NumKind2=dst kind)

	// Managed-heap data access (program P).
	OpNew    // Dst = allocate instance of Cls (fields zeroed)
	OpNewArr // Dst = allocate array, element Type, length A
	OpLoad   // Dst = A.Field
	OpStore  // A.Field = B
	OpLoadStatic
	OpStoreStatic
	OpALoad  // Dst = A[B], element Type
	OpAStore // A[B] = C
	OpALen   // Dst = length of A
	OpInstOf // Dst = A instanceof Type
	OpCast   // Dst = checked reference cast of A to Type

	// Calls and control flow.
	OpCall       // virtual call: dispatch M.Name on runtime class of A; args Args
	OpCallStatic // direct call of M (static method or constructor); args Args
	OpRet        // return A (or nothing if A == NoReg)
	OpJump       // goto Blk
	OpBranch     // if A goto Blk else Blk2
	OpIntr       // Dst = intrinsic Sym(Args...)
	OpNullCheck  // trap with NullPointerException(Sym) if A is null; stands in for the receiver check of an inlined virtual call

	// Monitors (program P uses the object lock word).
	OpMonEnter
	OpMonExit

	// Page half (program P', emitted by the FACADE transform).
	OpPNew      // Dst = allocate record of Cls in the current page manager
	OpPNewArr   // Dst = allocate array record, element Type, length A
	OpPLoad     // Dst = field Field of record A (A is a page ref)
	OpPStore    // field Field of record A = B
	OpPALoad    // Dst = element B of array record A, element Type
	OpPAStore   // element B of array record A = C
	OpPALen     // Dst = length of array record A
	OpPInstOf   // Dst = record A's type is (a subtype of) Cls / array Type
	OpPCast     // Dst = A after checking record type against Cls
	OpResolve   // Dst = receiver-pool facade for the runtime class of record A
	OpPoolGet   // Dst = parameter-pool facade Imm of class Cls (current thread)
	OpRecvPool  // Dst = receiver-pool facade of class Cls bound to record A (devirtualized resolve)
	OpPMonEnter // enter monitor of record A via the shared lock pool
	OpPMonExit  // exit monitor of record A
)

// NumOps is the number of opcode values; dispatch tables are sized by it.
const NumOps = int(OpPMonExit) + 1

var opNames = [...]string{
	OpNop: "nop", OpConst: "const", OpStrLit: "strlit", OpMove: "move",
	OpBin: "bin", OpUn: "un", OpConv: "conv",
	OpNew: "new", OpNewArr: "newarr", OpLoad: "load", OpStore: "store",
	OpLoadStatic: "loadstatic", OpStoreStatic: "storestatic",
	OpALoad: "aload", OpAStore: "astore", OpALen: "alen",
	OpInstOf: "instof", OpCast: "cast",
	OpCall: "call", OpCallStatic: "callstatic", OpRet: "ret",
	OpJump: "jump", OpBranch: "branch", OpIntr: "intr", OpNullCheck: "nullcheck",
	OpMonEnter: "monenter", OpMonExit: "monexit",
	OpPNew: "pnew", OpPNewArr: "pnewarr", OpPLoad: "pload",
	OpPStore: "pstore", OpPALoad: "paload", OpPAStore: "pastore",
	OpPALen: "palen", OpPInstOf: "pinstof", OpPCast: "pcast",
	OpResolve: "resolve", OpPoolGet: "poolget", OpRecvPool: "recvpool",
	OpPMonEnter: "pmonenter", OpPMonExit: "pmonexit",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Sub selects the arithmetic/logic operation for OpBin and OpUn.
type Sub uint8

// Binary and unary sub-operations.
const (
	BinAdd Sub = iota
	BinSub
	BinMul
	BinDiv
	BinRem
	BinAnd
	BinOr
	BinXor
	BinShl
	BinShr
	BinLt
	BinLe
	BinGt
	BinGe
	BinEq
	BinNe
	UnNeg
	UnNot
)

var subNames = [...]string{
	BinAdd: "+", BinSub: "-", BinMul: "*", BinDiv: "/", BinRem: "%",
	BinAnd: "&", BinOr: "|", BinXor: "^", BinShl: "<<", BinShr: ">>",
	BinLt: "<", BinLe: "<=", BinGt: ">", BinGe: ">=", BinEq: "==",
	BinNe: "!=", UnNeg: "neg", UnNot: "not",
}

func (s Sub) String() string {
	if int(s) < len(subNames) {
		return subNames[s]
	}
	return fmt.Sprintf("sub(%d)", int(s))
}

// NumKind classifies the machine representation an arithmetic instruction
// operates on.
type NumKind uint8

// Numeric kinds.
const (
	KInt NumKind = iota
	KLong
	KDouble
	KBool
	KByte
	KRef
)

func (k NumKind) String() string {
	switch k {
	case KInt:
		return "int"
	case KLong:
		return "long"
	case KDouble:
		return "double"
	case KBool:
		return "bool"
	case KByte:
		return "byte"
	case KRef:
		return "ref"
	}
	return "?"
}

// KindOf maps a semantic type to its machine kind.
func KindOf(t *lang.Type) NumKind {
	switch t.Kind {
	case lang.TBool:
		return KBool
	case lang.TByte:
		return KByte
	case lang.TInt:
		return KInt
	case lang.TLong:
		return KLong
	case lang.TDouble:
		return KDouble
	default:
		return KRef
	}
}

// Instr is one IR instruction, as the compiler passes see it: a single fat
// struct, unused operands zero/NoReg. The VM does not execute it; it lowers
// each function once to a Code and reads Instr only through Code.Src.
// Every instruction a compile keeps is one of these, so the fields are
// ordered to leave no padding (136 bytes on 64-bit targets).
type Instr struct {
	Op       Op
	Sub      Sub
	NumKind  NumKind
	NumKind2 NumKind
	Dst      Reg
	A, B, C  Reg
	// Site is the stable allocation-site ID of an OpNew/OpNewArr or a
	// Sys.fillNew OpIntr (which allocates instances of Cls) emitted by the
	// lowering pass (1..Program.NumSites). 0 means "no site":
	// either the instruction is not an allocation or it was synthesized
	// after lowering (transform helpers), in which case lifetime analysis
	// treats it as unknown. Site IDs survive the FACADE transform, so a
	// site classified on P applies to the control-heap allocations P'
	// retains.
	Site int32
	Args []Reg
	// Imm is the instruction's immediate; a KDouble OpConst keeps its
	// value's bits here (Float, SetFloat).
	Imm   int64
	Type  *lang.Type
	Cls   *lang.Class
	Field *lang.Field
	M     *lang.Method
	Sym   string
	Blk   int32
	Blk2  int32
	Pos   lang.Pos
}

// Float returns the value of a KDouble OpConst, kept in Imm's bits.
func (in *Instr) Float() float64 { return math.Float64frombits(uint64(in.Imm)) }

// SetFloat stores v as the value of a KDouble OpConst.
func (in *Instr) SetFloat(v float64) { in.Imm = int64(math.Float64bits(v)) }

// Block is a basic block; the last instruction is always a terminator
// (OpJump, OpBranch, or OpRet).
type Block struct {
	ID     int
	Instrs []Instr
}

// Func is one compiled method body.
type Func struct {
	// Name is "Class.method"; constructors use "Class.<init>".
	Name     string
	Class    *lang.Class
	Method   *lang.Method
	NumRegs  int
	RegTypes []*lang.Type
	// Params lists the parameter registers in call order; for instance
	// methods Params[0] is the receiver.
	Params []Reg
	Blocks []*Block
	// Synthetic marks compiler-generated functions (conversion functions,
	// facade constructors).
	Synthetic bool
	// Code is the function's execution form, set once by the VM's linker
	// under Program.LinkInstrs and never written again.
	Code *Code
}

// NewReg adds a virtual register of static type t and returns it.
func (f *Func) NewReg(t *lang.Type) Reg {
	r := Reg(f.NumRegs)
	f.NumRegs++
	f.RegTypes = append(f.RegTypes, t)
	return r
}

// NumInstrs returns the total instruction count, the unit the paper's
// compilation-speed numbers (instructions per second) are measured in.
func (f *Func) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// Program is a complete linked IR program.
type Program struct {
	H          *lang.Hierarchy
	Funcs      map[string]*Func
	StringPool []string
	// FuncList is Funcs in deterministic order.
	FuncList []*Func
	// Transformed is true for programs produced by the FACADE transform.
	Transformed bool
	// Facade transform metadata, set on transformed programs:
	// Bounds maps data class name -> parameter pool bound (§3.3).
	Bounds map[string]int
	// DataClasses is the set of data class names of the original program.
	DataClasses map[string]bool
	// DCERemoved counts instructions removed by dead-code elimination
	// (internal/analysis), for observability.
	DCERemoved int
	// NumSites is the number of allocation sites the lowering pass
	// numbered (Instr.Site ranges over 1..NumSites). Copied through the
	// FACADE transform so site IDs stay aligned between P and P'.
	NumSites int

	// ArrayTypes is the table of every array element type the program
	// names, built by the VM's linker under LinkInstrs and never written
	// again; the newarr, pnewarr, pinstanceof and pcast slots carry their
	// index into it.
	ArrayTypes *lang.ArrayTypes

	// linkOnce serializes the one-time lowering of every function to its
	// execution form (Func.Code, built by the VM's linker). The form is a
	// pure function of the program, so every VM sharing this program runs
	// the same code; the Once provides the happens-before edge that makes
	// concurrent VM construction over one shared program race-free.
	linkOnce sync.Once
	linkErr  error

	// facts is what internal/analysis hands from one pass to the next over
	// a finished program: dead-code elimination stores the control-flow
	// facts of P′ as it leaves the transform, the linter reads them and the
	// lifetime pass takes them. A stored value is never written; nil means
	// none.
	facts atomic.Pointer[any]
}

// Lifetime is the allocation-site lifetime class inferred by the
// interprocedural lifetime pass (internal/analysis).
type Lifetime uint8

// Lifetime classes. The lattice is deliberately three-valued: long-lived
// sites escape into the steady state, epoch-local sites provably die
// within their iteration, and everything the analysis cannot prove stays
// LifetimeUnknown. The classes are reported (facadec vet -lifetimes); no
// runtime acts on them, so none changes where an object is allocated.
const (
	LifetimeUnknown    Lifetime = iota // no proof either way
	LifetimeEpochLocal                 // provably unreachable past the iteration boundary
	LifetimeLongLived                  // escapes and is not bounded by any epoch
)

func (l Lifetime) String() string {
	switch l {
	case LifetimeEpochLocal:
		return "epoch-local"
	case LifetimeLongLived:
		return "long-lived"
	default:
		return "unknown"
	}
}

// StoreFacts publishes v, which its owner (internal/analysis) never writes
// again, for later passes over the program.
func (p *Program) StoreFacts(v any) { p.facts.Store(&v) }

// Facts returns the published facts, or nil.
func (p *Program) Facts() any {
	if v := p.facts.Load(); v != nil {
		return *v
	}
	return nil
}

// TakeFacts returns the published facts, or nil, and clears them.
func (p *Program) TakeFacts() any {
	if v := p.facts.Swap(nil); v != nil {
		return *v
	}
	return nil
}

// LinkInstrs runs fn at most once per program, memoizing its error. The
// VM uses it to build the shared execution form exactly once, so
// concurrent VM construction and interpretation over the same program
// never race on it. The instruction stream itself is never written.
func (p *Program) LinkInstrs(fn func() error) error {
	p.linkOnce.Do(func() { p.linkErr = fn() })
	return p.linkErr
}

// FuncKey builds the canonical function key for class + method name.
func FuncKey(class, method string) string { return class + "." + method }

// CtorKey builds the key of a constructor function.
func CtorKey(class string) string { return class + ".<init>" }

// FacadeName returns the name of the facade twin the transform generates
// for data class or interface orig; Object's twin is the base class Facade,
// whose §3.3 pool is keyed "Object".
func FacadeName(orig string) string {
	if orig == "Object" {
		return "Facade"
	}
	return orig + "Facade"
}

// FacadeOrig inverts FacadeName; ok is false when name is no twin's name.
func FacadeOrig(name string) (orig string, ok bool) {
	if name == "Facade" {
		return "Object", true
	}
	return strings.CutSuffix(name, "Facade")
}

// AddFunc registers f, keeping FuncList ordered by insertion.
func (p *Program) AddFunc(f *Func) {
	if p.Funcs == nil {
		p.Funcs = make(map[string]*Func)
	}
	if _, dup := p.Funcs[f.Name]; dup {
		panic("duplicate function " + f.Name)
	}
	p.Funcs[f.Name] = f
	p.FuncList = append(p.FuncList, f)
}

// Intern adds s to the string pool and returns its index.
func (p *Program) Intern(s string) int {
	for i, x := range p.StringPool {
		if x == s {
			return i
		}
	}
	p.StringPool = append(p.StringPool, s)
	return len(p.StringPool) - 1
}

// NumInstrs returns the program's total instruction count.
func (p *Program) NumInstrs() int {
	n := 0
	for _, f := range p.FuncList {
		n += f.NumInstrs()
	}
	return n
}

// InstrsInClasses counts the instructions of functions owned by the named
// classes — the size of a data path, the unit of the paper's
// compilation-speed measurements.
func (p *Program) InstrsInClasses(names []string) int {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	total := 0
	for _, f := range p.FuncList {
		if f.Class != nil && want[f.Class.Name] {
			total += f.NumInstrs()
		}
	}
	return total
}
