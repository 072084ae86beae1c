package ir

import "repro/internal/lang"

// Emitter collects the instructions and register types of one function
// at a time for a pass that builds many functions (lowering, the FACADE
// transform). A pass may emit into any block in any order; the
// instructions collect in emission order, tagged with their block, and
// Finish hands the function exact-size copies grouped by block. The
// buffers are reused from function to function: the instructions go to a
// list of fixed-size chunks, so a pass allocates the chunks its largest
// function needs and never regrows them. An Emitter belongs to one call
// of its pass and is never shared.
type Emitter struct {
	f      *Func     // the function being built
	chunks [][]Instr // each emitChunk long; instruction i is in chunks[i/emitChunk]
	n      int       // instructions of f so far
	blk    []int32   // blk[i] is the block of instruction i
	lens   []int     // instructions per block of f
	next   []int     // Finish's cursor per block
	regs   []*lang.Type
}

// emitChunk is the length of one of an Emitter's chunks: 16 instructions
// are 2 KiB, and the largest function of the repository's FJ corpus fits
// in eleven.
const emitChunk = 16

// Start begins building f, with no blocks. Until Finish, f.RegTypes is
// the emitter's buffer, which f.NewReg grows; it starts as a copy of the
// register types f holds now. The chunks keep the last function's
// instructions until Emit overwrites them; what those point to is the
// pass's own output, and the chunks die with the Emitter.
func (e *Emitter) Start(f *Func) {
	e.f = f
	e.n, e.blk, e.lens = 0, e.blk[:0], e.lens[:0]
	f.RegTypes = append(e.regs[:0], f.RegTypes...)
}

// NewBlock adds an empty block to the function and returns its ID.
func (e *Emitter) NewBlock() int {
	e.lens = append(e.lens, 0)
	return len(e.lens) - 1
}

// NumBlocks returns the number of blocks added since Start.
func (e *Emitter) NumBlocks() int { return len(e.lens) }

// Emit appends in to block id.
func (e *Emitter) Emit(id int, in Instr) {
	c := e.n / emitChunk
	if c == len(e.chunks) {
		e.chunks = append(e.chunks, make([]Instr, emitChunk))
	}
	e.chunks[c][e.n%emitChunk] = in
	e.n++
	e.blk = append(e.blk, int32(id))
	e.lens[id]++
}

// Finish gives the function begun by Start its blocks (see Func.setBody)
// and an exact-size copy of its register types, and returns it.
func (e *Emitter) Finish() *Func {
	f := e.f
	all := make([]Instr, e.n)
	// A stable counting sort by block: next[b] is where block b's next
	// instruction goes.
	e.next = append(e.next[:0], e.lens...)
	off := 0
	for b, n := range e.lens {
		e.next[b] = off
		off += n
	}
	for i, b := range e.blk {
		all[e.next[b]] = e.chunks[i/emitChunk][i%emitChunk]
		e.next[b]++
	}
	f.setBody(all, e.lens)
	e.regs = f.RegTypes
	f.RegTypes = make([]*lang.Type, len(e.regs))
	copy(f.RegTypes, e.regs)
	e.f = nil
	return f
}

// Clone returns a deep copy of f that shares no slice with it: blocks,
// instructions, argument lists, parameters and register types are all
// copied, the instructions and argument lists into one array each.
func (f *Func) Clone() *Func {
	nf := &Func{
		Name:      f.Name,
		Class:     f.Class,
		Method:    f.Method,
		NumRegs:   f.NumRegs,
		RegTypes:  append(f.RegTypes[:0:0], f.RegTypes...),
		Params:    append(f.Params[:0:0], f.Params...),
		Synthetic: f.Synthetic,
	}
	lens := make([]int, len(f.Blocks))
	total := 0
	for i, b := range f.Blocks {
		lens[i] = len(b.Instrs)
		total += lens[i]
	}
	all := make([]Instr, 0, total)
	for _, b := range f.Blocks {
		all = append(all, b.Instrs...)
	}
	nf.setBody(all, lens)
	return nf
}

// setBody makes f's blocks out of all, whose first lens[0] instructions
// are block 0's, the next lens[1] block 1's, and so on. Everything f keeps
// is allocated at its exact size, once: the blocks in one array, the
// instructions in all, which each block's slice views with its capacity
// capped at its length (so a pass that appends to one block reallocates
// it instead of writing over the next), and the argument lists, copied
// into one array viewed the same way.
func (f *Func) setBody(all []Instr, lens []int) {
	nargs := 0
	for j := range all {
		nargs += len(all[j].Args)
	}
	args := make([]Reg, nargs)
	for j := range all {
		if a := all[j].Args; a != nil {
			all[j].Args = args[:len(a):len(a)]
			args = args[copy(args, a):]
		}
	}
	blocks := make([]Block, len(lens))
	f.Blocks = make([]*Block, len(lens))
	for i, n := range lens {
		blocks[i] = Block{ID: i, Instrs: all[:n:n]}
		all = all[n:]
		f.Blocks[i] = &blocks[i]
	}
}
