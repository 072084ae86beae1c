package ir

import (
	"slices"
	"testing"

	"repro/internal/lang"
)

func ret(r Reg) Instr { return Instr{Op: OpRet, Dst: NoReg, A: r, B: NoReg, C: NoReg} }

// TestEmitterBlocksOwnTheirInstructions: blocks emitted in any order come
// out grouped, in emission order within each block; every block's and
// argument list's capacity ends at its length, so an append reallocates
// it rather than writing over its neighbour; and the next function emitted
// through the same Emitter leaves the first alone, register types
// included.
func TestEmitterBlocksOwnTheirInstructions(t *testing.T) {
	var e Emitter
	f := &Func{Name: "f"}
	e.Start(f)
	f.NewReg(lang.IntType)
	b0, b1 := e.NewBlock(), e.NewBlock()
	// Interleave the two blocks, more than a chunk's worth in all.
	for i := range 2 * emitChunk {
		e.Emit(i%2, Instr{Op: OpConst, Dst: 0, A: NoReg, B: NoReg, C: NoReg, Imm: int64(i)})
	}
	e.Emit(b1, Instr{Op: OpCall, Dst: NoReg, A: 0, B: NoReg, C: NoReg, Args: []Reg{0, 0}})
	e.Emit(b0, Instr{Op: OpJump, Dst: NoReg, A: NoReg, B: NoReg, C: NoReg, Blk: int32(b1)})
	e.Emit(b1, ret(NoReg))
	e.Finish()
	if len(f.Blocks) != 2 || f.Blocks[1].ID != 1 || len(f.RegTypes) != 1 || cap(f.RegTypes) != 1 {
		t.Fatalf("blocks %v", f.Blocks)
	}
	for b, blk := range f.Blocks {
		if len(blk.Instrs) != cap(blk.Instrs) {
			t.Errorf("b%d: len %d, cap %d", b, len(blk.Instrs), cap(blk.Instrs))
		}
		for j, in := range blk.Instrs[:emitChunk] {
			if want := int64(2*j + b); in.Imm != want {
				t.Fatalf("b%d#%d holds %d, want %d", b, j, in.Imm, want)
			}
		}
	}
	if args := f.Blocks[1].Instrs[emitChunk].Args; !slices.Equal(args, []Reg{0, 0}) || cap(args) != 2 {
		t.Errorf("call args %v, cap %d", args, cap(args))
	}
	want := f.String()
	g := &Func{Name: "g"}
	e.Start(g)
	g.NewReg(lang.BoolType)
	e.Emit(e.NewBlock(), ret(NoReg))
	e.Finish()
	if got := f.String(); got != want || f.RegTypes[0] != lang.IntType {
		t.Fatalf("f changed when g was emitted:\n%s\nwant:\n%s", got, want)
	}
}

// TestCloneSharesNothing: writing through every slice of a clone leaves
// the original as it was.
func TestCloneSharesNothing(t *testing.T) {
	f := validFunc()
	f.Params = []Reg{0}
	f.Blocks[1].Instrs[0].Args = []Reg{0}
	want := f.String()
	g := f.Clone()
	if got := g.String(); got != want {
		t.Fatalf("clone prints\n%s\nwant\n%s", got, want)
	}
	for _, b := range g.Blocks {
		for j := range b.Instrs {
			b.Instrs[j].Dst = 1
			for k := range b.Instrs[j].Args {
				b.Instrs[j].Args[k] = 1
			}
		}
	}
	g.RegTypes[0], g.Params[0] = lang.BoolType, 1
	if got := f.String(); got != want || f.Blocks[1].Instrs[0].Args[0] != 0 ||
		f.RegTypes[0] != lang.IntType || f.Params[0] != 0 {
		t.Fatalf("original changed through its clone:\n%s\nwant:\n%s", got, want)
	}
}
