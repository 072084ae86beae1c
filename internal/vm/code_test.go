package vm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/heap"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/offheap"
)

var update = flag.Bool("update", false, "rewrite testdata/code.want")

// xopNames names every execution-form opcode for the test-only
// disassembler; the interpreter itself never needs a name.
var xopNames = [NumOpcodes]string{
	xConst: "const", xMove: "move",
	xAddI32: "add.i32", xSubI32: "sub.i32", xMulI32: "mul.i32", xDivI32: "div.i32", xRemI32: "rem.i32",
	xAndI32: "and.i32", xOrI32: "or.i32", xXorI32: "xor.i32", xShlI32: "shl.i32", xShrI32: "shr.i32",
	xLtI32: "lt.i32", xLeI32: "le.i32", xGtI32: "gt.i32", xGeI32: "ge.i32", xEqI32: "eq.i32", xNeI32: "ne.i32",
	xAddI64: "add.i64", xSubI64: "sub.i64", xMulI64: "mul.i64", xDivI64: "div.i64", xRemI64: "rem.i64",
	xAndI64: "and.i64", xOrI64: "or.i64", xXorI64: "xor.i64", xShlI64: "shl.i64", xShrI64: "shr.i64",
	xLtI64: "lt.i64", xLeI64: "le.i64", xGtI64: "gt.i64", xGeI64: "ge.i64", xEqI64: "eq.i64", xNeI64: "ne.i64",
	xAddF64: "add.f64", xSubF64: "sub.f64", xMulF64: "mul.f64", xDivF64: "div.f64",
	xLtF64: "lt.f64", xLeF64: "le.f64", xGtF64: "gt.f64", xGeF64: "ge.f64", xEqF64: "eq.f64", xNeF64: "ne.f64",
	xNegI32: "neg.i32", xNegI64: "neg.i64", xNegF64: "neg.f64", xNot: "not", xConv: "conv",
	xAddI32Imm: "add.i32.imm", xAddI32ImmJmp: "add.i32.imm+jump", xMoveJmp: "move+jump",
	xLtI32Br: "lt.i32+branch", xLtF64Br: "lt.f64+branch",
	xNew: "new", xLoad1: "load.1", xLoad4: "load.4", xLoad8: "load.8",
	xStore1: "store.1", xStore4: "store.4", xStore8: "store.8", xStoreRef: "store.ref",
	xALoad1: "aload.1", xALoad4: "aload.4", xALoad8: "aload.8",
	xAStore1: "astore.1", xAStore4: "astore.4", xAStore8: "astore.8", xAStoreRef: "astore.ref", xALen: "alen",
	xCall: "call", xCallStatic: "callstatic", xRet: "ret", xRetVoid: "ret.void", xNullCheck: "nullcheck",
	xJump: "jump", xBranch: "branch", xSqrt: "sqrt", xAbs: "abs", xIntr: "intr",
	xPNew: "pnew", xPLoad1: "pload.1", xPLoad4: "pload.4", xPLoad8: "pload.8",
	xPStore1: "pstore.1", xPStore4: "pstore.4", xPStore8: "pstore.8",
	xPALoad1: "paload.1", xPALoad4: "paload.4", xPALoad8: "paload.8",
	xPAStore1: "pastore.1", xPAStore4: "pastore.4", xPAStore8: "pastore.8", xPALen: "palen",
	xResolve: "resolve", xPoolGet: "poolget", xRecvPool: "recvpool",
	xStrLit: "strlit", xNewArr: "newarr", xLoadStatic: "loadstatic", xStoreStatic: "storestatic",
	xInstOf: "instof", xCast: "cast", xMonEnter: "monenter", xMonExit: "monexit",
	xPNewArr: "pnewarr", xPInstOf: "pinstof", xPCast: "pcast", xPMonEnter: "pmonenter", xPMonExit: "pmonexit",
}

// TestSlotSize pins the interpreter's unit of work: two slots to a cache
// line, where the ir.Instr it replaced spanned three lines.
func TestSlotSize(t *testing.T) {
	if n := unsafe.Sizeof(ir.Slot{}); n > 32 {
		t.Fatalf("unsafe.Sizeof(ir.Slot{}) = %d, want <= 32", n)
	}
}

func TestEveryOpcodeHasAName(t *testing.T) {
	seen := map[string]uint16{}
	for op := uint16(1); op < numXops; op++ {
		name := xopNames[op]
		if name == "" {
			t.Fatalf("opcode %d has no name in xopNames", op)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("opcodes %d and %d are both named %q", prev, op, name)
		}
		seen[name] = op
	}
}

// TestEveryIROpLowers walks ir.NumOps: every opcode the compiler can emit
// lowers to a slot, to the opcode coldOps names for it when it is one run
// executes off the side table, or (a nop) to nothing.
func TestEveryIROpLowers(t *testing.T) {
	p := compile(t, `
class A { int f; static int s; int get() { return this.f; } static int id(int x) { return x; } }
class Main { static void main() { } }`)
	m, err := New(p, Config{HeapSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	a := p.H.Class("A")
	index := map[*ir.Func]int64{m.Func("A.id"): 0}
	for op := ir.Op(0); int(op) < ir.NumOps; op++ {
		in := ir.Instr{Op: op, Dst: 0, A: 1, B: 2, C: 3, Type: lang.IntType, Cls: a,
			Field: a.FindField("f"), M: a.Methods["get"], Sym: "sqrt", Args: []ir.Reg{1}}
		switch op {
		case ir.OpUn:
			in.Sub = ir.UnNeg
		case ir.OpCall:
			in.Args = nil
		case ir.OpCallStatic:
			in.M, in.A = a.Methods["id"], ir.NoReg
		case ir.OpLoadStatic, ir.OpStoreStatic:
			in.Field = a.Statics[0]
		}
		s, err := m.lowerInstr(m.Func("Main.main"), &in, index)
		switch {
		case err != nil:
			t.Errorf("%s does not lower: %v", op, err)
		case op == ir.OpNop:
			if s.Op != xInvalid {
				t.Errorf("nop lowers to %s, want no slot", xopNames[s.Op])
			}
		case s.Op == xInvalid || s.Op >= numXops:
			t.Errorf("%s lowers to opcode %d", op, s.Op)
		case coldOps[op] != 0 && s.Op != coldOps[op]:
			t.Errorf("%s lowers to %s, coldOps names %s", op, xopNames[s.Op], xopNames[coldOps[op]])
		}
	}
}

// mainOf names the entry point of a test program whose Main is a data class.
func mainOf(p *ir.Program) string {
	if p.Transformed {
		return "MainFacade.main"
	}
	return "Main.main"
}

// disasm prints a function's execution form: one line per slot with its
// operands, then the IR instructions the slot stands for.
func disasm(f *ir.Func) string {
	var sb strings.Builder
	c := f.Code
	fmt.Fprintf(&sb, "%s: %d IR instructions -> %d slots, entry block %d\n", f.Name, f.NumInstrs(), len(c.Slots), c.Entry)
	var flat []*ir.Instr
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			flat = append(flat, &b.Instrs[i])
		}
	}
	next := 0
	for pc, s := range c.Slots {
		var group []string
		for {
			in := flat[next]
			next++
			group = append(group, in.String())
			if in == c.Src[pc] {
				break
			}
		}
		fmt.Fprintf(&sb, "%4d  %-17s d=%-3d a=%-3d b=%-3d c=%-3d imm=%-6d n=%d,%d  | %s\n",
			pc, xopNames[s.Op], s.Dst, s.A, s.B, s.C, s.Imm, s.N, s.N2, strings.Join(group, " ; "))
	}
	return sb.String()
}

// TestCodeGolden pins the execution form of testdata/code.fj, P and P':
// every fusion, and beside each the shapes that must not fuse.
func TestCodeGolden(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "code.fj"))
	if err != nil {
		t.Fatal(err)
	}
	p := compile(t, string(src))
	p2 := transform(t, p, "Rec", "Forms")
	var got strings.Builder
	for _, q := range []*ir.Program{p, p2} {
		if _, err := New(q, Config{HeapSize: 1 << 20}); err != nil {
			t.Fatal(err)
		}
		class := "Forms"
		if q.Transformed {
			class = "FormsFacade"
		}
		for _, f := range q.FuncList {
			if f.Class != nil && f.Class.Name == class {
				got.WriteString(disasm(f))
				got.WriteByte('\n')
			}
		}
	}
	want := filepath.Join("testdata", "code.want")
	if *update {
		if err := os.WriteFile(want, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	exp, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(exp) {
		t.Fatalf("execution form of testdata/code.fj changed (-update rewrites %s):\n%s", want, got.String())
	}
}

// TestMalformedProgramsFailAtLink hand-breaks a compiled program the ways
// run used to discover mid-flight; every one must fail vm.New, naming the
// function and the source position.
func TestMalformedProgramsFailAtLink(t *testing.T) {
	const src = `
class A { int f; int get(int k) { return this.f + k; } static int id(int x) { return x; } }
class Main { static void main() { A a = new A(); Sys.println(a.get(1) + A.id(2)); Sys.println(Sys.sqrt(4.0)); } }`
	find := func(f *ir.Func, op ir.Op) *ir.Instr {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if b.Instrs[i].Op == op {
					return &b.Instrs[i]
				}
			}
		}
		t.Fatalf("%s has no %s", f.Name, op)
		return nil
	}
	cases := map[string]struct {
		breakIt func(main *ir.Func)
		want    string
	}{
		"static-arity":    {func(f *ir.Func) { find(f, ir.OpCallStatic).Args = nil }, "A.id expects 1 args, got 0"},
		"virtual-arity":   {func(f *ir.Func) { in := find(f, ir.OpCall); in.Args = append(in.Args, in.Args[0]) }, "A.get expects 2 args, got 3"},
		"intrinsic-arity": {func(f *ir.Func) { find(f, ir.OpIntr).Args = nil }, "intrinsic println expects 1 args, got 0"},
		"intrinsic-name":  {func(f *ir.Func) { find(f, ir.OpIntr).Sym = "fsync" }, "unknown intrinsic fsync"},
		"opcode":          {func(f *ir.Func) { find(f, ir.OpNew).Op = ir.Op(ir.NumOps) }, "unimplemented op"},
		"binary-kind":     {func(f *ir.Func) { find(f, ir.OpBin).NumKind = ir.KRef }, "bad binary op + on ref"},
		"unterminated": {func(f *ir.Func) {
			b := f.Blocks[len(f.Blocks)-1]
			b.Instrs = b.Instrs[:len(b.Instrs)-1]
		}, "fell off block"},
		"missing-block": {func(f *ir.Func) {
			b := f.Blocks[len(f.Blocks)-1]
			b.Instrs[len(b.Instrs)-1] = ir.Instr{Op: ir.OpJump, Blk: 99}
		}, "branch to missing block b99"},
		"block-too-long": {func(f *ir.Func) {
			b := f.Blocks[0]
			long := make([]ir.Instr, 0, 1<<16+len(b.Instrs))
			for i := 0; i < 1<<16; i++ {
				long = append(long, ir.Instr{Op: ir.OpNop})
			}
			b.Instrs = append(long, b.Instrs...)
		}, "over the count field's 65535"},
	}
	for name, c := range cases {
		name, c := name, c
		t.Run(name, func(t *testing.T) {
			p := compile(t, src)
			c.breakIt(p.Funcs["Main.main"])
			_, err := New(p, Config{HeapSize: 1 << 20})
			if err == nil || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "vm: Main.main:") {
				t.Fatalf("vm.New = %v, want a link error of Main.main containing %q", err, c.want)
			}
			// The error is the program's, so a second VM gets it too.
			if _, again := New(p, Config{HeapSize: 1 << 20}); again == nil || again.Error() != err.Error() {
				t.Fatalf("second vm.New = %v, first %v", again, err)
			}
		})
	}
}

// TestLinkLeavesTheIRUntouched prints P and P' before and after vm.New: the
// linker's results live in Func.Code, never in the instruction stream.
func TestLinkLeavesTheIRUntouched(t *testing.T) {
	print := func(q *ir.Program) string {
		var sb strings.Builder
		for _, f := range q.FuncList {
			sb.WriteString(f.String())
		}
		return sb.String()
	}
	p := compile(t, recordOpsProgram(""))
	for _, q := range []*ir.Program{p, transform(t, p, "Rec", "Main")} {
		before := print(q)
		if _, err := New(q, Config{HeapSize: 8 << 20}); err != nil {
			t.Fatal(err)
		}
		if after := print(q); after != before {
			t.Fatalf("vm.New changed the printed IR (transformed=%v)", q.Transformed)
		}
	}
}

// TestConcurrentLinkSharesOneForm builds four VMs over one never-linked
// program at once, a fifth after the link, and runs the first again after
// ResetForReuse: exactly one lowers the program, every one runs the same
// execution form over the same array type table and tags a Rec[] built at
// the boundary with the same index, and the race detector sees no write
// they share. Both halves.
func TestConcurrentLinkSharesOneForm(t *testing.T) {
	src := recordOpsProgram("")
	want := runMain(t, compile(t, src), 8<<20)
	for _, q := range []*ir.Program{compile(t, src), transform(t, compile(t, src), "Rec", "Main")} {
		type seen struct {
			out  string
			code *ir.Code
			arr  int // the array type index in the Rec[]'s header
		}
		run := func(m *VM, out *bytes.Buffer) (seen, error) {
			th, err := m.NewThread(nil)
			if err != nil {
				return seen{}, err
			}
			defer th.Close()
			if _, err := th.Call(mainOf(q)); err != nil {
				return seen{}, err
			}
			o, err := th.NewArr("Rec", 2)
			if err != nil {
				return seen{}, err
			}
			return seen{out.String(), m.Func(mainOf(q)).Code, arrTypeOf(m, m.Get(o))}, nil
		}
		var wg sync.WaitGroup
		vms := make([]*VM, 4)
		outs := make([]bytes.Buffer, len(vms)+1)
		got := make([]seen, len(vms), len(vms)+2)
		for i := range vms {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				m, err := New(q, Config{HeapSize: 8 << 20, Out: &outs[i]})
				if err != nil {
					t.Error(err)
					return
				}
				vms[i] = m
				if got[i], err = run(m, &outs[i]); err != nil {
					t.Error(err)
				}
			}(i)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		fresh, err := New(q, Config{HeapSize: 8 << 20, Out: &outs[len(vms)]})
		if err != nil {
			t.Fatal(err)
		}
		s, err := run(fresh, &outs[len(vms)])
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
		outs[0].Reset()
		if err := vms[0].ResetForReuse(ResetConfig{Out: &outs[0]}); err != nil {
			t.Fatal(err)
		}
		if s, err = run(vms[0], &outs[0]); err != nil {
			t.Fatal(err)
		}
		got = append(got, s)

		rec, ok := q.ArrayTypes.Index("Rec")
		if !ok {
			t.Fatal("the program's array type table lacks Rec")
		}
		for i, s := range got {
			if s.out != want {
				t.Errorf("run %d printed %q, want %q", i, s.out, want)
			}
			if s.code == nil || s.code != got[0].code {
				t.Errorf("run %d saw a different execution form than run 0", i)
			}
			if s.arr != rec {
				t.Errorf("run %d tagged a Rec[] with array type %d, the table has %d", i, s.arr, rec)
			}
		}
	}
}

// arrTypeOf reads the array type index from the header of array v.
func arrTypeOf(m *VM, v Value) int {
	if m.Prog.Transformed {
		idx, _ := offheap.ArrayType(offheap.TypeWord(m.RT.Bytes(offheap.PageRef(v))))
		return idx
	}
	return int(binary.LittleEndian.Uint32(m.Heap.Bytes(heap.Addr(v))) &^ (1 << 31))
}

// TestNewArrOfAnUnnamedType asks the boundary for an array whose element
// type the program never names: the table was fixed at link, so NewArr
// returns an error naming the type, and the thread goes on allocating the
// arrays the table has.
func TestNewArrOfAnUnnamedType(t *testing.T) {
	src := `
class Rec { int i; }
class Main { static void main() { Rec r = new Rec(); r.i = 1; } }`
	for _, q := range []*ir.Program{compile(t, src), transform(t, compile(t, src), "Rec", "Main")} {
		m, err := New(q, Config{HeapSize: 4 << 20})
		if err != nil {
			t.Fatal(err)
		}
		th, err := m.NewThread(nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := th.NewArr("Rec", 3); err == nil || !strings.Contains(err.Error(), "Rec") {
			t.Errorf("transformed=%v: NewArr(Rec) = %v, want an error naming Rec", q.Transformed, err)
		}
		if _, err := th.NewArr("double", 3); err != nil {
			t.Errorf("transformed=%v: NewArr(double) after the refusal: %v", q.Transformed, err)
		}
		th.Close()
	}
}

// TestArrayTableOverTheTypeWordFails builds the table over synthetic type
// lists: as many types as a record's type word indexes link, one more fails
// with ErrTooManyArrayTypes.
func TestArrayTableOverTheTypeWordFails(t *testing.T) {
	elems := make([]*lang.Type, offheap.MaxArrayTypes+1)
	for i := range elems {
		elems[i] = lang.ClassType(fmt.Sprintf("C%d", i))
	}
	if tab, err := newArrayTable(elems[:offheap.MaxArrayTypes]); err != nil || tab.Len() != offheap.MaxArrayTypes {
		t.Fatalf("a full table: %v", err)
	}
	if _, err := newArrayTable(elems); !errors.Is(err, offheap.ErrTooManyArrayTypes) {
		t.Fatalf("one type past the type word: err = %v, want ErrTooManyArrayTypes", err)
	}
}

// TestTrapTextsAroundFusedSlots raises each trap whose text comes from the
// by-pc side table at a pc that fusion shifted: in the block a fused
// compare-and-branch enters, right after a fused add-immediate, and just
// before a fused latch. Both halves; the page half tiered and untiered,
// leaving no pin behind.
func TestTrapTextsAroundFusedSlots(t *testing.T) {
	program := func(body string) string {
		return `
class Rec { int i; double d; Rec next; int len() { return this.i; } }
class Main {
    static void main() {
        int[] xs = new int[5];
        Rec[] rs = new Rec[5];
        for (int k = 0; k < 4; k = k + 1) { rs[k] = new Rec(); rs[k].i = k; xs[k] = k; }
        for (int k = 0; k < 5; k = k + 1) { ` + body + ` }
    }
}`
	}
	cases := map[string]struct{ body, wantP, wantP2 string }{
		"field-read":    {"Sys.println(rs[k].i);", "NullPointerException: field read i", "NullPointerException: record read i"},
		"field-write":   {"rs[k].d = 0.5; Sys.println(k);", "NullPointerException: field write d", "NullPointerException: record write d"},
		"virtual-call":  {"Rec r = rs[k]; Rec n = r.next; if (k == 3) { Sys.println(n.len()); }", "NullPointerException: virtual call len", "NullPointerException: devirtualized call on null record"},
		"bounds-length": {"Sys.println(xs[k + 1]);", "ArrayIndexOutOfBoundsException: index 5, length 5", ""},
		"bounds-minus":  {"xs[k - 1] = k;", "ArrayIndexOutOfBoundsException: index -1, length 5", ""},
	}
	run := func(p *ir.Program, tiered bool) (string, error) {
		var out bytes.Buffer
		cfg := Config{HeapSize: 4 << 20, Out: &out}
		if tiered {
			cfg.Tiering = &offheap.TierConfig{Dir: t.TempDir(), HighWater: 1, LowWater: 1}
		}
		m, err := New(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		th, err := m.NewThread(nil)
		if err != nil {
			t.Fatal(err)
		}
		_, runErr := th.Call(mainOf(p))
		th.Close()
		if p.Transformed {
			m.rootScope.ReleaseAll()
			if pins := m.RT.Pins(); pins != 0 {
				t.Fatalf("%d pin(s) leaked (tiered=%v, err=%v)", pins, tiered, runErr)
			}
		}
		return out.String(), runErr
	}
	for name, c := range cases {
		name, c := name, c
		t.Run(name, func(t *testing.T) {
			p := compile(t, program(c.body))
			p2 := transform(t, p, "Rec", "Main")
			outP, errP := run(p, false)
			if errP == nil || errP.Error() != c.wantP {
				t.Fatalf("P error %v, want %q", errP, c.wantP)
			}
			if c.wantP2 == "" {
				c.wantP2 = c.wantP
			}
			for _, tiered := range []bool{false, true} {
				out, err := run(p2, tiered)
				if err == nil || err.Error() != c.wantP2 {
					t.Fatalf("P' (tiered=%v) error %v, want %q", tiered, err, c.wantP2)
				}
				if out != outP {
					t.Fatalf("P' (tiered=%v) printed %q before the trap, P %q", tiered, out, outP)
				}
			}
		})
	}
}

// TestCancelEndsAFusedLoop spins `while (true) { i = i + 1; }`, whose whole
// body is one fused latch slot, on P and P'. The loop must still stop for a
// collection another thread asks for, and vm.Cancel must end it.
func TestCancelEndsAFusedLoop(t *testing.T) {
	p := compile(t, `class Main { static void main() { int i = 0; while (true) { i = i + 1; } } } class D { int x; }`)
	for _, q := range []*ir.Program{p, transform(t, p, "D", "Main")} {
		m, err := New(q, Config{HeapSize: 4 << 20})
		if err != nil {
			t.Fatal(err)
		}
		entry := mainOf(q)
		latch := false
		for _, s := range m.Func(entry).Code.Slots {
			latch = latch || s.Op == xAddI32ImmJmp || s.Op == xMoveJmp
		}
		if !latch {
			t.Fatalf("%s has no fused latch:\n%s", entry, disasm(m.Func(entry)))
		}
		spinner, err := m.NewThread(nil)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := spinner.Call(entry)
			done <- err
		}()
		// A collection completes only once every mutator has parked, and a
		// thread that parks records its wait. The spinner can record one
		// wait entering the call; a second can only come from the one
		// safepoint it has, its back edge.
		other, err := m.NewThread(nil)
		if err != nil {
			t.Fatal(err)
		}
		waits := func() int64 { return m.Obs().Snapshot().Histograms[obs.HistSafepointWait].Count }
		for deadline := time.Now().Add(30 * time.Second); waits() < 2; {
			if time.Now().After(deadline) {
				t.Fatal("the loop never parked for a collection")
			}
			if err := m.Heap.Collect(other.tc, false); err != nil {
				t.Fatal(err)
			}
		}
		other.Close()
		stop := errors.New("stop the loop")
		m.Cancel(stop)
		if err := <-done; !errors.Is(err, stop) {
			t.Fatalf("loop ended with %v, want the cancellation", err)
		}
		spinner.Close()
	}
}
