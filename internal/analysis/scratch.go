package analysis

// bitTable is n bit sets of one capacity laid back to back in one array of
// words: the form every per-block and per-instruction family of sets of a
// solve takes, so a family costs one array and no set headers.
type bitTable struct {
	words []uint64
	n, w  int // sets, and words per set
}

// row returns set i.
func (t bitTable) row(i int) BitSet { return t.words[i*t.w : (i+1)*t.w : (i+1)*t.w] }

// sets returns the table as a slice of sets sharing its words, the form
// the exported solves return.
func (t bitTable) sets() []BitSet {
	out := make([]BitSet, t.n)
	for i := range out {
		out[i] = t.row(i)
	}
	return out
}

// ownTable returns a copy of t in one exact-size array that no scratch
// hands out again: what a pass keeps past its next reset.
func ownTable(t bitTable) bitTable {
	return bitTable{words: append(make([]uint64, 0, len(t.words)), t.words...), n: t.n, w: t.w}
}

// scratch is the working memory of a dataflow solve. Every per-block and
// per-instruction set of one function is carved out of it, so a solve
// allocates one slab of words instead of one array per set. A pass that
// visits every function keeps one scratch and resets it between
// functions, so it allocates for its largest function rather than for
// each; what a carve returned is invalid after the next reset. A scratch
// belongs to one call of one pass and is never shared.
type scratch struct {
	words  []uint64
	ints   []int
	states []taintState
}

// newScratch returns a scratch with room for the given number of words,
// the one slab of an exported solve.
func newScratch(words int) *scratch { return &scratch{words: make([]uint64, 0, words)} }

// reset hands every carved element back for the next function.
func (s *scratch) reset() { s.words, s.ints, s.states = s.words[:0], s.ints[:0], s.states[:0] }

// wordsFor returns the number of words of a set of capacity bits.
func wordsFor(bits int) int { return (bits + 63) / 64 }

// table carves n empty sets of capacity bits.
func (s *scratch) table(n, bits int) bitTable {
	w := wordsFor(bits)
	return bitTable{words: carve(&s.words, n*w), n: n, w: w}
}

// bitSet carves one empty set of capacity bits.
func (s *scratch) bitSet(bits int) BitSet { return carve(&s.words, wordsFor(bits)) }

// copyTable carves a copy of t.
func (s *scratch) copyTable(t bitTable) bitTable {
	out := bitTable{words: carve(&s.words, len(t.words)), n: t.n, w: t.w}
	copy(out.words, t.words)
	return out
}

// carve returns n zeroed elements from the free tail of *buf. When the
// tail is too short it moves *buf to a new array of at least twice the
// size; the elements carved before keep the old array alive until they
// are dropped, and the next reset reuses only the new one.
func carve[T any](buf *[]T, n int) []T {
	b := *buf
	if cap(b)-len(b) < n {
		b = make([]T, 0, max(2*cap(b), n))
	}
	out := b[len(b) : len(b)+n : len(b)+n]
	clear(out)
	*buf = b[:len(b)+n]
	return out
}
