package analysis

import "repro/internal/ir"

// This file is the one forward may-taint engine of the package. The
// facade-leak lint (lint.go) and the lifetime pass (lifetime.go) both ask
// the same question — which registers may hold a value of interest at each
// program point, and is that point provably inside a §2.2 iteration — so
// they share one abstract state, one iteration-region machine and one
// driver, and differ only in their step and visit callbacks.

// region is the two-bit iteration-region state: whether the program point
// can be inside a Sys.iterStart()/Sys.iterEnd() pair, and whether it can be
// outside one. The zero value is "no path reaches here".
type region struct{ canIn, canOut bool }

var (
	regionInside  = region{canIn: true}
	regionOutside = region{canOut: true}
	// regionUnknown is what a function entry, or the return from a call
	// that may cross a boundary, proves: nothing.
	regionUnknown = region{canIn: true, canOut: true}
)

// inside reports whether the point is proven inside an iteration.
func (r region) inside() bool { return r.canIn && !r.canOut }

// step moves r across in: the two intrinsics are the only instructions the
// machine models itself.
func (r *region) step(in *ir.Instr) {
	if in.Op != ir.OpIntr {
		return
	}
	switch in.Sym {
	case "iterStart":
		*r = regionInside
	case "iterEnd":
		*r = regionOutside
	}
}

// merge folds t into r (union meet) and reports whether r grew.
func (r *region) merge(t region) bool {
	grown := region{r.canIn || t.canIn, r.canOut || t.canOut}
	changed := grown != *r
	*r = grown
	return changed
}

// taintState is the abstract state at one program point: sets[i] holds the
// registers that may carry the client's i-th tracked value, at is the
// iteration region.
type taintState struct {
	sets []BitSet
	at   region
}

// newTaintStates returns count empty states of nsets register sets each,
// carved out of one backing array.
func newTaintStates(count, nsets, regs int) []taintState {
	w := (regs + 63) / 64 // NewBitSet's word count
	words := make([]uint64, count*nsets*w)
	sets := make([]BitSet, count*nsets)
	for i := range sets {
		sets[i] = words[i*w : (i+1)*w : (i+1)*w]
	}
	states := make([]taintState, count)
	for i := range states {
		states[i].sets = sets[i*nsets : (i+1)*nsets : (i+1)*nsets]
	}
	return states
}

func (s *taintState) copyFrom(t *taintState) {
	for i := range s.sets {
		s.sets[i].CopyFrom(t.sets[i])
	}
	s.at = t.at
}

func (s *taintState) mergeFrom(t *taintState) bool {
	changed := s.at.merge(t.at)
	for i := range s.sets {
		changed = s.sets[i].UnionWith(t.sets[i]) || changed
	}
	return changed
}

// liveAfterAll returns, for every reachable block of c, the register set
// live immediately after each instruction (i.e. before the next one
// executes), indexed by block ID; unreachable blocks stay nil. Like
// newTaintStates, it carves every set out of one backing array.
func liveAfterAll(c *CFG, liveOut []BitSet) [][]BitSet {
	f := c.F
	n := 0
	for _, b := range c.RPO {
		n += len(f.Blocks[b].Instrs)
	}
	w := (f.NumRegs + 63) / 64 // NewBitSet's word count
	words := make([]uint64, n*w)
	sets := make([]BitSet, n)
	after := make([][]BitSet, len(f.Blocks))
	live := NewBitSet(f.NumRegs)
	for _, b := range c.RPO {
		instrs := f.Blocks[b].Instrs
		after[b], sets = sets[:len(instrs):len(instrs)], sets[len(instrs):]
		live.CopyFrom(liveOut[b])
		for j := len(instrs) - 1; j >= 0; j-- {
			s := BitSet(words[:w:w])
			words = words[w:]
			s.CopyFrom(live)
			after[b][j] = s
			StepBack(live, &instrs[j])
		}
	}
	return after
}

// runTaint solves one forward may-taint problem over c and then shows the
// client every reachable program point. seed fills block 0's in-state (the
// number of sets it is handed is nsets). The fixpoint is a union meet over
// c.RPO: in-states only ever grow, so merging predecessor out-states into
// the persistent in-state is monotone and converges. Before each
// instruction the driver steps the region machine, then calls step for the
// client's own transfer. The replay walks each reachable block once, in RPO,
// from its fixpoint in-state: visit sees the state before the instruction
// executes together with the registers live after it (after is
// liveAfterAll's result), then the state is stepped.
//
// The returned in- and out-states are indexed by block ID; unreachable
// blocks keep the zero state.
func runTaint(c *CFG, after [][]BitSet, nsets int, seed func(entry *taintState),
	step func(s *taintState, in *ir.Instr),
	visit func(s *taintState, in *ir.Instr, live BitSet)) (ins, outs []taintState) {
	f := c.F
	n := len(f.Blocks)
	states := newTaintStates(2*n+1, nsets, f.NumRegs)
	ins, outs, cur := states[:n], states[n:2*n], &states[2*n]
	seed(&ins[0])
	for changed := true; changed; {
		changed = false
		for _, b := range c.RPO {
			for _, pred := range c.Preds[b] {
				if c.Reachable(pred) {
					ins[b].mergeFrom(&outs[pred])
				}
			}
			cur.copyFrom(&ins[b])
			instrs := f.Blocks[b].Instrs
			for j := range instrs {
				cur.at.step(&instrs[j])
				step(cur, &instrs[j])
			}
			if outs[b].mergeFrom(cur) {
				changed = true
			}
		}
	}
	for _, b := range c.RPO {
		cur.copyFrom(&ins[b])
		instrs := f.Blocks[b].Instrs
		for j := range instrs {
			visit(cur, &instrs[j], after[b][j])
			cur.at.step(&instrs[j])
			step(cur, &instrs[j])
		}
	}
	return ins, outs
}
