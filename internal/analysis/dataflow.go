package analysis

import "repro/internal/ir"

// BitSet is a fixed-capacity bit vector used as the dataflow lattice
// element (sets of registers or of definition sites).
type BitSet []uint64

// NewBitSet returns an empty set with capacity for n bits.
func NewBitSet(n int) BitSet { return make(BitSet, (n+63)/64) }

// Set adds bit i.
func (s BitSet) Set(i int) { s[i/64] |= 1 << (uint(i) % 64) }

// Clear removes bit i.
func (s BitSet) Clear(i int) { s[i/64] &^= 1 << (uint(i) % 64) }

// Has reports whether bit i is present.
func (s BitSet) Has(i int) bool { return s[i/64]&(1<<(uint(i)%64)) != 0 }

// Copy returns an independent copy of s.
func (s BitSet) Copy() BitSet {
	t := make(BitSet, len(s))
	copy(t, s)
	return t
}

// CopyFrom overwrites s with t (same capacity).
func (s BitSet) CopyFrom(t BitSet) { copy(s, t) }

// UnionWith folds t into s and reports whether s changed. A shorter t is
// treated as zero-extended; bits of t beyond s's capacity are ignored.
func (s BitSet) UnionWith(t BitSet) bool {
	if len(t) > len(s) {
		t = t[:len(s)]
	}
	changed := false
	for i := range t {
		n := s[i] | t[i]
		if n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}

// IntersectWith intersects s with t and reports whether s changed. A
// shorter t is treated as zero-extended, so words of s past t's length are
// cleared.
func (s BitSet) IntersectWith(t BitSet) bool {
	changed := false
	for i := range s {
		var tw uint64
		if i < len(t) {
			tw = t[i]
		}
		n := s[i] & tw
		if n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}

// intersects reports whether s and t, of equal capacity, share a bit.
func intersects(s, t BitSet) bool {
	for i := range s {
		if s[i]&t[i] != 0 {
			return true
		}
	}
	return false
}

// Fill sets the first n bits (the universal set for capacity n).
func (s BitSet) Fill(n int) {
	full := n / 64
	for i := 0; i < full; i++ {
		s[i] = ^uint64(0)
	}
	if rem := uint(n % 64); rem != 0 {
		s[full] |= (1 << rem) - 1
	}
}

// Equal reports set equality. Capacities may differ: a bit present in the
// longer set's tail makes the sets unequal, so Equal compares sets, not
// representations.
func (s BitSet) Equal(t BitSet) bool {
	if len(s) > len(t) {
		s, t = t, s
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	for _, w := range t[len(s):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of set bits.
func (s BitSet) Count() int {
	n := 0
	for i := range s {
		w := s[i]
		for w != 0 {
			w &= w - 1
			n++
		}
	}
	return n
}

// Uses appends the registers read by in to buf and returns it. The IR
// reads uniformly from A, B, C, and Args; NoReg slots are skipped.
// OpCall's Imm is VM link state (selector id), never a register.
func Uses(in *ir.Instr, buf []ir.Reg) []ir.Reg {
	for _, r := range []ir.Reg{in.A, in.B, in.C} {
		if r != ir.NoReg {
			buf = append(buf, r)
		}
	}
	for _, r := range in.Args {
		if r != ir.NoReg {
			buf = append(buf, r)
		}
	}
	return buf
}

// Def returns the register defined by in, or NoReg.
func Def(in *ir.Instr) ir.Reg { return in.Dst }

// Direction selects how a dataflow problem propagates facts.
type Direction int

// Dataflow directions.
const (
	Forward Direction = iota
	Backward
)

// Problem describes a gen/kill bit-vector dataflow problem over a CFG.
// Transfer per block is out = Gen ∪ (in − Kill) (forward) or the mirror
// image (backward); the meet over edges is union (May) or intersection
// (Must).
type Problem struct {
	Dir Direction
	// May selects union meet; false means intersection (must) meet.
	May  bool
	Bits int
	// Boundary is the entry value (forward: entry block in-set; backward:
	// out-set of blocks with no successors). Nil means empty.
	Boundary BitSet
	// Init is the initial interior value for all non-boundary in/out sets.
	// Nil means empty; must problems typically pass the universal set.
	Init BitSet
	// Gen and Kill are per-block transfer sets, indexed by block ID.
	Gen, Kill []BitSet
}

// Solve runs the iterative worklist algorithm and returns the fixpoint
// in/out set per block. For Must problems, unreachable blocks keep Init.
func Solve(c *CFG, p Problem) (in, out []BitSet) {
	n := len(c.F.Blocks)
	in = make([]BitSet, n)
	out = make([]BitSet, n)
	for i := 0; i < n; i++ {
		in[i] = NewBitSet(p.Bits)
		out[i] = NewBitSet(p.Bits)
		if p.Init != nil {
			in[i].CopyFrom(p.Init)
			out[i].CopyFrom(p.Init)
		}
	}
	boundary := p.Boundary
	if boundary == nil {
		boundary = NewBitSet(p.Bits)
	}
	transfer := func(dst, src BitSet, b int) {
		for i := range dst {
			dst[i] = p.Gen[b][i] | (src[i] &^ p.Kill[b][i])
		}
	}
	meetInto := func(dst BitSet, edges []int, get func(int) BitSet) {
		if len(edges) == 0 {
			dst.CopyFrom(boundary)
			return
		}
		dst.CopyFrom(get(edges[0]))
		for _, e := range edges[1:] {
			if p.May {
				dst.UnionWith(get(e))
			} else {
				dst.IntersectWith(get(e))
			}
		}
	}
	// Iterate in RPO (forward) or reverse RPO (backward) until stable.
	order := c.RPO
	if p.Dir == Backward {
		order = make([]int, len(c.RPO))
		for i, b := range c.RPO {
			order[len(c.RPO)-1-i] = b
		}
	}
	tmp := NewBitSet(p.Bits)
	for changed := true; changed; {
		changed = false
		for _, b := range order {
			if p.Dir == Forward {
				if b == 0 {
					in[b].CopyFrom(boundary)
				} else {
					meetInto(in[b], c.Preds[b], func(e int) BitSet { return out[e] })
				}
				transfer(tmp, in[b], b)
				if !tmp.Equal(out[b]) {
					out[b].CopyFrom(tmp)
					changed = true
				}
			} else {
				meetInto(out[b], c.Succs[b], func(e int) BitSet { return in[e] })
				transfer(tmp, out[b], b)
				if !tmp.Equal(in[b]) {
					in[b].CopyFrom(tmp)
					changed = true
				}
			}
		}
	}
	return in, out
}

// Liveness computes per-block live-in/live-out register sets (backward
// may problem: gen = upward-exposed uses, kill = defs).
func Liveness(c *CFG) (liveIn, liveOut []BitSet) {
	f := c.F
	n := len(f.Blocks)
	gen := make([]BitSet, n)
	kill := make([]BitSet, n)
	var ubuf []ir.Reg
	for i, b := range f.Blocks {
		gen[i] = NewBitSet(f.NumRegs)
		kill[i] = NewBitSet(f.NumRegs)
		for j := range b.Instrs {
			in := &b.Instrs[j]
			ubuf = Uses(in, ubuf[:0])
			for _, r := range ubuf {
				if !kill[i].Has(int(r)) {
					gen[i].Set(int(r))
				}
			}
			if d := Def(in); d != ir.NoReg {
				kill[i].Set(int(d))
			}
		}
	}
	return Solve(c, Problem{
		Dir: Backward, May: true, Bits: f.NumRegs, Gen: gen, Kill: kill,
	})
}

// StepBack updates live in place across one instruction, walking backward:
// live = (live − def) ∪ uses.
func StepBack(live BitSet, in *ir.Instr) {
	if d := Def(in); d != ir.NoReg {
		live.Clear(int(d))
	}
	for _, r := range []ir.Reg{in.A, in.B, in.C} {
		if r != ir.NoReg {
			live.Set(int(r))
		}
	}
	for _, r := range in.Args {
		if r != ir.NoReg {
			live.Set(int(r))
		}
	}
}

// MustDefined computes, per block, the set of registers guaranteed to be
// defined on entry (forward must problem). The entry boundary is the
// parameter set; unreachable blocks keep the universal set, so dead code
// never reports use-before-def.
func MustDefined(c *CFG) (in []BitSet) {
	f := c.F
	n := len(f.Blocks)
	gen := make([]BitSet, n)
	kill := make([]BitSet, n)
	for i, b := range f.Blocks {
		gen[i] = NewBitSet(f.NumRegs)
		kill[i] = NewBitSet(f.NumRegs)
		for j := range b.Instrs {
			if d := Def(&b.Instrs[j]); d != ir.NoReg {
				gen[i].Set(int(d))
			}
		}
	}
	boundary := NewBitSet(f.NumRegs)
	for _, r := range f.Params {
		boundary.Set(int(r))
	}
	universal := NewBitSet(f.NumRegs)
	universal.Fill(f.NumRegs)
	in, _ = Solve(c, Problem{
		Dir: Forward, May: false, Bits: f.NumRegs,
		Boundary: boundary, Init: universal, Gen: gen, Kill: kill,
	})
	return in
}

// DefSite identifies one instruction by block and index, used by
// ReachingDefs.
type DefSite struct {
	Block, Index int
}

// ReachingDefs computes which of the given definition sites reach the
// entry of each block (forward may problem over site indices). A site is
// killed by any instruction in a block that defines the same register.
func ReachingDefs(c *CFG, sites []DefSite) (in []BitSet) {
	f := c.F
	n := len(f.Blocks)
	// sitesByReg[r] lists site indices defining register r.
	sitesByReg := map[ir.Reg][]int{}
	for i, s := range sites {
		d := Def(&f.Blocks[s.Block].Instrs[s.Index])
		sitesByReg[d] = append(sitesByReg[d], i)
	}
	gen := make([]BitSet, n)
	kill := make([]BitSet, n)
	for b := 0; b < n; b++ {
		gen[b] = NewBitSet(len(sites))
		kill[b] = NewBitSet(len(sites))
	}
	for b, blk := range f.Blocks {
		for j := range blk.Instrs {
			d := Def(&blk.Instrs[j])
			if d == ir.NoReg {
				continue
			}
			// Any def of r kills all monitored sites for r...
			for _, si := range sitesByReg[d] {
				kill[b].Set(si)
				gen[b].Clear(si)
			}
			// ...and if this instruction is itself a monitored site, it is
			// (for now) downward-exposed.
			for si, s := range sites {
				if s.Block == b && s.Index == j {
					gen[b].Set(si)
				}
			}
		}
	}
	in, _ = Solve(c, Problem{
		Dir: Forward, May: true, Bits: len(sites), Gen: gen, Kill: kill,
	})
	return in
}
