package ir

// Code is the execution form of one function: the flat array of pre-decoded
// slots the VM interprets in place of Blocks. internal/vm builds it once per
// program, under LinkInstrs, and owns the opcode numbering and the operand
// conventions; this package only declares the shape, so that a Func can hold
// a typed pointer to it. A Code is read-only once linked and is shared by
// every VM built over the program.
type Code struct {
	Slots []Slot
	// Src maps a pc to the IR instruction its slot was lowered from (the
	// last one, for a fused group): trap texts, call arguments and the cold
	// operations read the instruction through it.
	Src []*Instr
	// Entry is the IR length of the entry block, counted on every
	// activation the way a control edge counts the block it enters.
	Entry int
}

// Slot is one pre-decoded instruction of a Code, two to a cache line.
type Slot struct {
	Op uint16
	// N and N2 are the IR lengths of the blocks a control slot's two edges
	// enter (targets in C and Imm).
	N, N2        uint16
	Dst, A, B, C int32
	Imm          int64
}
