package ir

import (
	"fmt"
	"strings"

	"repro/internal/lang"
)

// String renders a function in a readable assembly-like form, used by tests
// and the facadec -dump flag.
func (f *Func) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s (regs=%d)\n", f.Name, f.NumRegs)
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "b%d:\n", b.ID)
		for i := range b.Instrs {
			fmt.Fprintf(&sb, "  %s\n", b.Instrs[i].String())
		}
	}
	return sb.String()
}

func regStr(r Reg) string {
	if r == NoReg {
		return "_"
	}
	return fmt.Sprintf("r%d", r)
}

// clsStr and the field helpers keep String total: diagnostics must be able
// to print partially-built or corrupted instructions without panicking.
func clsStr(c *lang.Class) string {
	if c == nil {
		return "?"
	}
	return c.Name
}

func fieldName(f *lang.Field) string {
	if f == nil {
		return "?"
	}
	return f.Name
}

func fieldOffset(f *lang.Field) int {
	if f == nil {
		return -1
	}
	return f.Offset
}

func fieldOwner(f *lang.Field) string {
	if f == nil || f.Owner == nil {
		return "?"
	}
	return f.Owner.Name
}

func typeStr(t *lang.Type) string {
	if t == nil {
		return "?"
	}
	return t.String()
}

func sigStr(m *lang.Method) string {
	if m == nil {
		return "?"
	}
	// Sig formats the return type; tolerate half-built methods without one.
	if m.Ret == nil {
		return m.Name
	}
	return m.Sig()
}

// String renders one instruction.
func (in *Instr) String() string {
	var sb strings.Builder
	if in.Dst != NoReg {
		fmt.Fprintf(&sb, "%s = ", regStr(in.Dst))
	}
	fmt.Fprintf(&sb, "%s", in.Op)
	switch in.Op {
	case OpConst:
		if in.Type != nil && in.NumKind == KDouble {
			fmt.Fprintf(&sb, " %g", in.Float())
		} else {
			fmt.Fprintf(&sb, " %d", in.Imm)
		}
	case OpStrLit:
		fmt.Fprintf(&sb, " #%d", in.Imm)
	case OpBin:
		fmt.Fprintf(&sb, " %s %s, %s (%s)", in.Sub, regStr(in.A), regStr(in.B), in.NumKind)
	case OpUn:
		fmt.Fprintf(&sb, " %s %s", in.Sub, regStr(in.A))
	case OpConv:
		fmt.Fprintf(&sb, " %s->%s %s", in.NumKind, in.NumKind2, regStr(in.A))
	case OpMove:
		fmt.Fprintf(&sb, " %s", regStr(in.A))
	case OpNew, OpPNew:
		fmt.Fprintf(&sb, " %s", clsStr(in.Cls))
	case OpNewArr, OpPNewArr:
		fmt.Fprintf(&sb, " %s[%s]", typeStr(in.Type), regStr(in.A))
	case OpLoad, OpPLoad:
		fmt.Fprintf(&sb, " %s.%s(+%d)", regStr(in.A), fieldName(in.Field), fieldOffset(in.Field))
	case OpStore, OpPStore:
		fmt.Fprintf(&sb, " %s.%s(+%d) <- %s", regStr(in.A), fieldName(in.Field), fieldOffset(in.Field), regStr(in.B))
	case OpLoadStatic:
		fmt.Fprintf(&sb, " %s.%s", fieldOwner(in.Field), fieldName(in.Field))
	case OpStoreStatic:
		fmt.Fprintf(&sb, " %s.%s <- %s", fieldOwner(in.Field), fieldName(in.Field), regStr(in.A))
	case OpALoad, OpPALoad:
		fmt.Fprintf(&sb, " %s[%s]", regStr(in.A), regStr(in.B))
	case OpAStore, OpPAStore:
		fmt.Fprintf(&sb, " %s[%s] <- %s", regStr(in.A), regStr(in.B), regStr(in.C))
	case OpALen, OpPALen:
		fmt.Fprintf(&sb, " %s", regStr(in.A))
	case OpInstOf:
		fmt.Fprintf(&sb, " %s %s", regStr(in.A), typeStr(in.Type))
	case OpPInstOf:
		if in.Cls != nil {
			fmt.Fprintf(&sb, " %s %s", regStr(in.A), in.Cls.Name)
		} else {
			fmt.Fprintf(&sb, " %s %s", regStr(in.A), typeStr(in.Type))
		}
	case OpCast:
		fmt.Fprintf(&sb, " %s to %s", regStr(in.A), typeStr(in.Type))
	case OpPCast:
		if in.Cls != nil {
			fmt.Fprintf(&sb, " %s to %s", regStr(in.A), in.Cls.Name)
		} else {
			fmt.Fprintf(&sb, " %s to %s", regStr(in.A), typeStr(in.Type))
		}
	case OpCall, OpCallStatic:
		fmt.Fprintf(&sb, " %s recv=%s args=(", sigStr(in.M), regStr(in.A))
		for i, a := range in.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(regStr(a))
		}
		sb.WriteString(")")
	case OpRet:
		if in.A != NoReg {
			fmt.Fprintf(&sb, " %s", regStr(in.A))
		}
	case OpJump:
		fmt.Fprintf(&sb, " b%d", in.Blk)
	case OpBranch:
		fmt.Fprintf(&sb, " %s ? b%d : b%d", regStr(in.A), in.Blk, in.Blk2)
	case OpIntr:
		fmt.Fprintf(&sb, " %s(", in.Sym)
		for i, a := range in.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(regStr(a))
		}
		sb.WriteString(")")
	case OpMonEnter, OpMonExit, OpPMonEnter, OpPMonExit:
		fmt.Fprintf(&sb, " %s", regStr(in.A))
	case OpNullCheck:
		fmt.Fprintf(&sb, " %s %q", regStr(in.A), in.Sym)
	case OpResolve:
		fmt.Fprintf(&sb, " %s", regStr(in.A))
	case OpPoolGet:
		fmt.Fprintf(&sb, " %s[%d]", clsStr(in.Cls), in.Imm)
	case OpRecvPool:
		fmt.Fprintf(&sb, " %s <- %s", clsStr(in.Cls), regStr(in.A))
	}
	return sb.String()
}

// Verify checks structural invariants: every block ends in a terminator,
// jump targets exist, and register indices are in range. It returns the
// first violation found.
func (f *Func) Verify() error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("%s: no blocks", f.Name)
	}
	nb := int32(len(f.Blocks))
	for i, b := range f.Blocks {
		if b.ID != i {
			return fmt.Errorf("%s: block %d has ID %d", f.Name, i, b.ID)
		}
		if len(b.Instrs) == 0 {
			return fmt.Errorf("%s: empty block b%d", f.Name, i)
		}
		for j := range b.Instrs {
			in := &b.Instrs[j]
			isTerm := in.Op == OpJump || in.Op == OpBranch || in.Op == OpRet
			if j == len(b.Instrs)-1 && !isTerm {
				return fmt.Errorf("%s: b%d does not end in a terminator", f.Name, i)
			}
			if j < len(b.Instrs)-1 && isTerm {
				return fmt.Errorf("%s: b%d has terminator mid-block", f.Name, i)
			}
			for _, r := range []Reg{in.Dst, in.A, in.B, in.C} {
				if r != NoReg && (r < 0 || int(r) >= f.NumRegs) {
					return fmt.Errorf("%s: b%d instr %d: register %d out of range", f.Name, i, j, r)
				}
			}
			for _, r := range in.Args {
				if r < 0 || int(r) >= f.NumRegs {
					return fmt.Errorf("%s: b%d instr %d: arg register %d out of range", f.Name, i, j, r)
				}
			}
			if in.Op == OpJump || in.Op == OpBranch {
				if in.Blk < 0 || in.Blk >= nb {
					return fmt.Errorf("%s: b%d: bad jump target b%d", f.Name, i, in.Blk)
				}
			}
			if in.Op == OpBranch && (in.Blk2 < 0 || in.Blk2 >= nb) {
				return fmt.Errorf("%s: b%d: bad branch target b%d", f.Name, i, in.Blk2)
			}
		}
	}
	if len(f.RegTypes) != f.NumRegs {
		return fmt.Errorf("%s: RegTypes length %d != NumRegs %d", f.Name, len(f.RegTypes), f.NumRegs)
	}
	return nil
}

// Verify checks all functions in the program.
func (p *Program) Verify() error {
	for _, f := range p.FuncList {
		if err := f.Verify(); err != nil {
			return err
		}
	}
	return nil
}
