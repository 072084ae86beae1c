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

// direction selects how a dataflow problem propagates facts.
type direction int

// Dataflow directions.
const (
	forward direction = iota
	backward
)

// problem describes a gen/kill bit-vector dataflow problem over a CFG.
// Transfer per block is out = gen ∪ (in − kill) (forward) or the mirror
// image (backward); the meet over edges is union (may) or intersection
// (must).
type problem struct {
	dir direction
	// may selects union meet; false means intersection (must) meet.
	may  bool
	bits int
	// boundary is the entry value (forward: entry block in-set; backward:
	// out-set of blocks with no successors). Nil means empty.
	boundary BitSet
	// init is the initial interior value for all non-boundary in/out sets.
	// Nil means empty; must problems typically pass the universal set.
	init BitSet
	// gen and kill are per-block transfer sets, one row per block ID.
	gen, kill bitTable
}

// solve runs the iterative worklist algorithm and returns the fixpoint
// in/out set per block, carved out of s. For must problems, unreachable
// blocks keep init.
func solve(c *CFG, p problem, s *scratch) (in, out bitTable) {
	n := len(c.F.Blocks)
	in = s.table(n, p.bits)
	out = s.table(n, p.bits)
	if p.init != nil {
		for i := 0; i < n; i++ {
			in.row(i).CopyFrom(p.init)
			out.row(i).CopyFrom(p.init)
		}
	}
	boundary := p.boundary
	if boundary == nil {
		boundary = s.bitSet(p.bits)
	}
	tmp := s.bitSet(p.bits)
	transfer := func(dst, src BitSet, b int) {
		gen, kill := p.gen.row(b), p.kill.row(b)
		for i := range dst {
			dst[i] = gen[i] | (src[i] &^ kill[i])
		}
	}
	// meetInto folds the rows of sets over edges into dst.
	meetInto := func(dst BitSet, edges []int, sets bitTable) {
		if len(edges) == 0 {
			dst.CopyFrom(boundary)
			return
		}
		dst.CopyFrom(sets.row(edges[0]))
		for _, e := range edges[1:] {
			if p.may {
				dst.UnionWith(sets.row(e))
			} else {
				dst.IntersectWith(sets.row(e))
			}
		}
	}
	// Iterate in RPO (forward) or reverse RPO (backward) until stable.
	for changed := true; changed; {
		changed = false
		for k := range c.RPO {
			if p.dir == forward {
				b := c.RPO[k]
				if b == 0 {
					in.row(b).CopyFrom(boundary)
				} else {
					meetInto(in.row(b), c.Preds(b), out)
				}
				transfer(tmp, in.row(b), b)
				if !tmp.Equal(out.row(b)) {
					out.row(b).CopyFrom(tmp)
					changed = true
				}
			} else {
				b := c.RPO[len(c.RPO)-1-k]
				meetInto(out.row(b), c.Succs(b), in)
				transfer(tmp, out.row(b), b)
				if !tmp.Equal(in.row(b)) {
					in.row(b).CopyFrom(tmp)
					changed = true
				}
			}
		}
	}
	return in, out
}

// Liveness computes per-block live-in/live-out register sets (backward
// may problem: gen = upward-exposed uses, kill = defs). Every set's words
// are carved out of one slab.
func Liveness(c *CFG) (liveIn, liveOut []BitSet) {
	in, out := liveness(c, newScratch(livenessWords(c)))
	return in.sets(), out.sets()
}

// livenessWords is the number of words a liveness solve of c carves.
func livenessWords(c *CFG) int { return (4*len(c.F.Blocks) + 2) * wordsFor(c.F.NumRegs) }

// liveness is Liveness with its sets carved out of s.
func liveness(c *CFG, s *scratch) (liveIn, liveOut bitTable) {
	f := c.F
	n := len(f.Blocks)
	gen := s.table(n, f.NumRegs)
	kill := s.table(n, f.NumRegs)
	for i, b := range f.Blocks {
		g, k := gen.row(i), kill.row(i)
		use := func(r ir.Reg) {
			if r != ir.NoReg && !k.Has(int(r)) {
				g.Set(int(r))
			}
		}
		for j := range b.Instrs {
			in := &b.Instrs[j]
			use(in.A)
			use(in.B)
			use(in.C)
			for _, r := range in.Args {
				use(r)
			}
			if d := Def(in); d != ir.NoReg {
				k.Set(int(d))
			}
		}
	}
	return solve(c, problem{
		dir: backward, may: true, bits: f.NumRegs, gen: gen, kill: kill,
	}, s)
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
// never reports use-before-def. Every set's words are carved out of one
// slab.
func MustDefined(c *CFG) (in []BitSet) {
	return mustDefined(c, newScratch((4*len(c.F.Blocks)+3)*wordsFor(c.F.NumRegs))).sets()
}

// mustDefined is MustDefined with its sets carved out of s.
func mustDefined(c *CFG, s *scratch) (in bitTable) {
	f := c.F
	n := len(f.Blocks)
	gen := s.table(n, f.NumRegs)
	kill := s.table(n, f.NumRegs)
	for i, b := range f.Blocks {
		for j := range b.Instrs {
			if d := Def(&b.Instrs[j]); d != ir.NoReg {
				gen.row(i).Set(int(d))
			}
		}
	}
	boundary := s.bitSet(f.NumRegs)
	for _, r := range f.Params {
		boundary.Set(int(r))
	}
	universal := s.bitSet(f.NumRegs)
	universal.Fill(f.NumRegs)
	in, _ = solve(c, problem{
		dir: forward, may: false, bits: f.NumRegs,
		boundary: boundary, init: universal, gen: gen, kill: kill,
	}, s)
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
// Every set's words are carved out of one slab.
func ReachingDefs(c *CFG, sites []DefSite) (in []BitSet) {
	return reachingDefs(c, sites, newScratch((4*len(c.F.Blocks)+2)*wordsFor(len(sites)))).sets()
}

// reachingDefs is ReachingDefs with its sets carved out of s.
func reachingDefs(c *CFG, sites []DefSite, s *scratch) (in bitTable) {
	f := c.F
	n := len(f.Blocks)
	// sitesByReg[r] lists site indices defining register r.
	sitesByReg := map[ir.Reg][]int{}
	for i, site := range sites {
		d := Def(&f.Blocks[site.Block].Instrs[site.Index])
		sitesByReg[d] = append(sitesByReg[d], i)
	}
	gen := s.table(n, len(sites))
	kill := s.table(n, len(sites))
	for b, blk := range f.Blocks {
		g, k := gen.row(b), kill.row(b)
		for j := range blk.Instrs {
			d := Def(&blk.Instrs[j])
			if d == ir.NoReg {
				continue
			}
			// Any def of r kills all monitored sites for r...
			for _, si := range sitesByReg[d] {
				k.Set(si)
				g.Clear(si)
			}
			// ...and if this instruction is itself a monitored site, it is
			// (for now) downward-exposed.
			for si, site := range sites {
				if site.Block == b && site.Index == j {
					g.Set(si)
				}
			}
		}
	}
	in, _ = solve(c, problem{
		dir: forward, may: true, bits: len(sites), gen: gen, kill: kill,
	}, s)
	return in
}
