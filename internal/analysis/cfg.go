// Package analysis provides static analyses over the FACADE IR: CFG
// utilities (predecessors/successors, reverse postorder, witness paths), a
// generic worklist dataflow solver with liveness / reaching-definitions /
// must-defined instances, one forward may-taint engine (taint.go: abstract
// state, iteration-region machine, fixpoint-and-replay driver) with its two
// clients — the facade-safety linter's leak check and the interprocedural
// lifetime pass — an IR verifier, a closed-world inliner, and a
// liveness-driven dead-code eliminator.
//
// The package depends only on internal/ir and internal/lang so that every
// layer above the IR (internal/core, facade, cmd/facadec, tests) can use it
// without import cycles.
package analysis

import "repro/internal/ir"

// CFG is the control-flow graph of one function. Block IDs equal their
// index in F.Blocks (enforced by ir.Func.Verify), so edges are plain ints.
type CFG struct {
	F     *ir.Func
	Succs [][]int
	Preds [][]int
	// RPO is a reverse postorder of the blocks reachable from the entry
	// block 0. Unreachable blocks (lowering emits a few, e.g. after a
	// return inside a loop) are absent from RPO.
	RPO []int
	// rpoIndex[b] is b's position in RPO, or -1 for unreachable blocks.
	rpoIndex []int
}

// BuildCFG computes successor and predecessor edges and a reverse
// postorder for f. It assumes f passes ir.Func.Verify (every block ends in
// a terminator with in-range targets).
func BuildCFG(f *ir.Func) *CFG {
	n := len(f.Blocks)
	c := &CFG{
		F:        f,
		Succs:    make([][]int, n),
		Preds:    make([][]int, n),
		rpoIndex: make([]int, n),
	}
	for i, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			continue
		}
		t := &b.Instrs[len(b.Instrs)-1]
		switch t.Op {
		case ir.OpJump:
			c.Succs[i] = []int{t.Blk}
		case ir.OpBranch:
			if t.Blk == t.Blk2 {
				c.Succs[i] = []int{t.Blk}
			} else {
				c.Succs[i] = []int{t.Blk, t.Blk2}
			}
		}
	}
	for from, ss := range c.Succs {
		for _, to := range ss {
			c.Preds[to] = append(c.Preds[to], from)
		}
	}
	// Iterative postorder DFS from the entry block, then reverse.
	seen := make([]bool, n)
	post := make([]int, 0, n)
	type frame struct{ blk, next int }
	stack := []frame{{0, 0}}
	seen[0] = true
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		if fr.next < len(c.Succs[fr.blk]) {
			s := c.Succs[fr.blk][fr.next]
			fr.next++
			if !seen[s] {
				seen[s] = true
				stack = append(stack, frame{s, 0})
			}
			continue
		}
		post = append(post, fr.blk)
		stack = stack[:len(stack)-1]
	}
	c.RPO = make([]int, len(post))
	for i := range post {
		c.RPO[i] = post[len(post)-1-i]
	}
	for i := range c.rpoIndex {
		c.rpoIndex[i] = -1
	}
	for i, b := range c.RPO {
		c.rpoIndex[b] = i
	}
	return c
}

// Reachable reports whether block b is reachable from the entry block.
func (c *CFG) Reachable(b int) bool { return c.rpoIndex[b] >= 0 }

// WitnessPath returns a shortest path of block IDs from block `from` to
// block `to` following CFG edges, or nil if `to` is unreachable from
// `from`. Used by the pool-clobber lint to report the offending path.
func (c *CFG) WitnessPath(from, to int) []int {
	if from == to {
		return []int{from}
	}
	prev := make([]int, len(c.F.Blocks))
	for i := range prev {
		prev[i] = -1
	}
	queue := []int{from}
	prev[from] = from
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		for _, s := range c.Succs[b] {
			if prev[s] != -1 {
				continue
			}
			prev[s] = b
			if s == to {
				var path []int
				for x := to; ; x = prev[x] {
					path = append(path, x)
					if x == from {
						break
					}
				}
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path
			}
			queue = append(queue, s)
		}
	}
	return nil
}
