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

// taintState is the abstract state at one program point: set(i) holds the
// registers that may carry the client's i-th tracked value, at is the
// iteration region.
type taintState struct {
	sets bitTable
	at   region
}

// set returns the state's i-th register set.
func (s *taintState) set(i int) BitSet { return s.sets.row(i) }

// newTaintStates carves count empty states of nsets register sets each
// out of sc.
func newTaintStates(count, nsets, regs int, sc *scratch) []taintState {
	all := sc.table(count*nsets, regs)
	states := carve(&sc.states, count)
	k := nsets * all.w
	for i := range states {
		states[i].sets = bitTable{words: all.words[i*k : (i+1)*k : (i+1)*k], n: nsets, w: all.w}
	}
	return states
}

func (s *taintState) copyFrom(t *taintState) {
	copy(s.sets.words, t.sets.words)
	s.at = t.at
}

func (s *taintState) mergeFrom(t *taintState) bool {
	changed := s.at.merge(t.at)
	return BitSet(s.sets.words).UnionWith(t.sets.words) || changed
}

// liveAfter holds the register set live immediately after each
// instruction (i.e. before the next one executes) of the reachable blocks
// of a function, one row per instruction.
type liveAfter struct {
	bitTable
	first []int // first[b] is the row of block b's first instruction
}

// at returns the set live after instruction j of block b.
func (a liveAfter) at(b, j int) BitSet { return a.row(a.first[b] + j) }

// liveAfterAll computes the live-after sets of every reachable block of c
// from its live-out sets, carved out of s.
func liveAfterAll(c *CFG, liveOut bitTable, s *scratch) liveAfter {
	f := c.F
	n := 0
	for _, b := range c.RPO {
		n += len(f.Blocks[b].Instrs)
	}
	after := liveAfter{bitTable: s.table(n, f.NumRegs), first: carve(&s.ints, len(f.Blocks))}
	live := s.bitSet(f.NumRegs)
	row := 0
	for _, b := range c.RPO {
		instrs := f.Blocks[b].Instrs
		after.first[b] = row
		row += len(instrs)
		live.CopyFrom(liveOut.row(b))
		for j := len(instrs) - 1; j >= 0; j-- {
			after.at(b, j).CopyFrom(live)
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
// blocks keep the zero state. Every state is carved out of sc.
func runTaint(c *CFG, after liveAfter, nsets int, sc *scratch, seed func(entry *taintState),
	step func(s *taintState, in *ir.Instr),
	visit func(s *taintState, in *ir.Instr, live BitSet)) (ins, outs []taintState) {
	f := c.F
	n := len(f.Blocks)
	states := newTaintStates(2*n+1, nsets, f.NumRegs, sc)
	ins, outs, cur := states[:n], states[n:2*n], &states[2*n]
	seed(&ins[0])
	for changed := true; changed; {
		changed = false
		for _, b := range c.RPO {
			for _, pred := range c.Preds(b) {
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
			visit(cur, &instrs[j], after.at(b, j))
			cur.at.step(&instrs[j])
			step(cur, &instrs[j])
		}
	}
	return ins, outs
}
