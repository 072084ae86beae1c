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

import (
	"slices"

	"repro/internal/ir"
)

// CFG is the control-flow graph of one function. Block IDs equal their
// index in F.Blocks (enforced by ir.Func.Verify), so edges are plain ints.
type CFG struct {
	F *ir.Func
	// The edges, in compressed rows: block b's successors are
	// succ[succAt[b]:succAt[b+1]], its predecessors pred[predAt[b]:predAt[b+1]].
	succ, pred     []int
	succAt, predAt []int
	// RPO is a reverse postorder of the blocks reachable from the entry
	// block 0. Unreachable blocks (lowering emits a few, e.g. after a
	// return inside a loop) are absent from RPO.
	RPO []int
	// rpoIndex[b] is b's position in RPO, or -1 for unreachable blocks.
	rpoIndex []int
}

// Succs returns the successors of block b: a jump's target, a branch's
// two targets (one when they are the same block), none for a return.
func (c *CFG) Succs(b int) []int { return c.succ[c.succAt[b]:c.succAt[b+1]] }

// Preds returns the predecessors of block b, in ascending order.
func (c *CFG) Preds(b int) []int { return c.pred[c.predAt[b]:c.predAt[b+1]] }

// BuildCFG computes successor and predecessor edges and a reverse
// postorder for f. It assumes f passes ir.Func.Verify (every block ends in
// a terminator with in-range targets). The whole CFG is carved out of one
// slab of ints.
func BuildCFG(f *ir.Func) *CFG {
	n := len(f.Blocks)
	edges := 0
	for _, b := range f.Blocks {
		_, k := succsOf(b)
		edges += k
	}
	// The slab: successors, predecessors, their row starts, RPO and
	// rpoIndex.
	ints := make([]int, 2*edges+2*(n+1)+2*n)
	c := &CFG{F: f}
	c.succ, ints = ints[:edges], ints[edges:]
	c.pred, ints = ints[:edges], ints[edges:]
	c.succAt, ints = ints[:n+1], ints[n+1:]
	c.predAt, ints = ints[:n+1], ints[n+1:]
	rpo := ints[:n]
	c.rpoIndex = ints[n:]
	// The DFS stack of (block, next successor) pairs lives on the
	// goroutine's stack unless the function is deeply nested.
	var stackArr [64]int
	stack := stackArr[:0]
	k := 0
	for i, b := range f.Blocks {
		ss, m := succsOf(b)
		c.succAt[i] = k
		k += copy(c.succ[k:], ss[:m])
		// Count predecessors into the row starts, one row late.
		for _, to := range ss[:m] {
			c.predAt[to+1]++
		}
	}
	c.succAt[n] = k
	// Predecessors by a counting sort, so each row is in ascending order
	// of the predecessor's ID; next[b] is where b's next one goes.
	for i := 1; i <= n; i++ {
		c.predAt[i] += c.predAt[i-1]
	}
	next := c.rpoIndex
	copy(next, c.predAt[:n])
	for from := range n {
		for _, to := range c.Succs(from) {
			c.pred[next[to]] = from
			next[to]++
		}
	}
	// Iterative postorder DFS from the entry block into rpo, then reverse
	// it; rpoIndex marks the blocks seen with 0, and the unreachable ones
	// keep -1.
	for i := range c.rpoIndex {
		c.rpoIndex[i] = -1
	}
	post := rpo[:0]
	stack = append(stack, 0, 0)
	c.rpoIndex[0] = 0
	for len(stack) > 0 {
		top := len(stack) - 2
		blk, nx := stack[top], stack[top+1]
		if ss := c.Succs(blk); nx < len(ss) {
			stack[top+1]++
			if s := ss[nx]; c.rpoIndex[s] < 0 {
				c.rpoIndex[s] = 0
				stack = append(stack, s, 0)
			}
			continue
		}
		post = append(post, blk)
		stack = stack[:top]
	}
	c.RPO = post[:len(post):len(post)]
	slices.Reverse(c.RPO)
	for i, b := range c.RPO {
		c.rpoIndex[b] = i
	}
	return c
}

// succsOf returns the successors of b, whose last instruction is its
// terminator, as ss[:k]: a jump's one target, a branch's two or, when they
// are the same block, one; none for a return.
func succsOf(b *ir.Block) (ss [2]int, k int) {
	if len(b.Instrs) == 0 {
		return ss, 0
	}
	switch t := &b.Instrs[len(b.Instrs)-1]; t.Op {
	case ir.OpJump:
		return [2]int{int(t.Blk)}, 1
	case ir.OpBranch:
		if t.Blk == t.Blk2 {
			return [2]int{int(t.Blk)}, 1
		}
		return [2]int{int(t.Blk), int(t.Blk2)}, 2
	}
	return ss, 0
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
		for _, s := range c.Succs(b) {
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
