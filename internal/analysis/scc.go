package analysis

// sccs hands the strongly connected components of a graph on the vertices
// 0..n-1 to emit in reverse topological order: a component comes after
// every component it has an edge to, so over a call graph callees come
// first. It is Tarjan's algorithm, started from the vertices in index order
// so the order is deterministic. out(v) lists v's out-edges and to names
// an edge's head; the slice emit receives is only valid during the call.
func sccs[E any](n int, out func(v int) []E, to func(E) int, emit func(scc []int)) {
	index := make([]int, 2*n) // 0 = unvisited
	low := index[n:]
	onStack := make([]bool, n)
	stack := make([]int, 0, n)
	next := 0
	var visit func(v int)
	visit = func(v int) {
		next++
		index[v], low[v] = next, next
		stack = append(stack, v)
		onStack[v] = true
		for _, e := range out(v) {
			w := to(e)
			if index[w] == 0 {
				visit(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] != index[v] {
			return
		}
		first := len(stack) - 1
		for stack[first] != v {
			first--
		}
		for _, w := range stack[first:] {
			onStack[w] = false
		}
		emit(stack[first:])
		stack = stack[:first]
	}
	for v := 0; v < n; v++ {
		if index[v] == 0 {
			visit(v)
		}
	}
}
