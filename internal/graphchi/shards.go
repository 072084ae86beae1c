package graphchi

import (
	"sort"

	"repro/internal/datagen"
)

// ShardedGraph is the on-"disk" representation the engine streams from:
// in-edges grouped by destination (the role GraphChi's shards play), plus
// per-vertex degrees. These Go-side arrays model the memory-mapped shard
// files — they are never part of the managed heap, just as GraphChi's
// shards live on disk, not in the JVM heap.
type ShardedGraph struct {
	NumVertices int
	NumShards   int
	// InStart[v]..InStart[v+1] indexes InSrc: the sources of v's in-edges.
	InStart []int64
	InSrc   []int32
	OutDeg  []int32
	InDeg   []int32
	// ShardBounds[i] is the first vertex of shard i (len NumShards+1).
	ShardBounds []int
}

// Shard builds the sharded representation. undirected adds the reverse of
// every edge first (connected components runs on the undirected graph).
// nShards partitions vertices into shards with roughly equal edge counts
// (the paper fixes 20 shards; the count has little performance impact).
func Shard(g *datagen.Graph, nShards int, undirected bool) *ShardedGraph {
	v := g.NumVertices
	type edge struct{ src, dst int32 }
	edges := make([]edge, 0, len(g.Src)*2)
	for i := range g.Src {
		edges = append(edges, edge{g.Src[i], g.Dst[i]})
		if undirected {
			edges = append(edges, edge{g.Dst[i], g.Src[i]})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].dst != edges[j].dst {
			return edges[i].dst < edges[j].dst
		}
		return edges[i].src < edges[j].src
	})
	sg := &ShardedGraph{
		NumVertices: v,
		NumShards:   nShards,
		InStart:     make([]int64, v+1),
		InSrc:       make([]int32, len(edges)),
		OutDeg:      make([]int32, v),
		InDeg:       make([]int32, v),
	}
	for i, e := range edges {
		sg.InSrc[i] = e.src
		sg.InDeg[e.dst]++
		sg.OutDeg[e.src]++
	}
	pos := int64(0)
	for i := 0; i < v; i++ {
		sg.InStart[i] = pos
		pos += int64(sg.InDeg[i])
	}
	sg.InStart[v] = pos

	// Shard boundaries with balanced edge counts.
	perShard := (len(edges) + nShards - 1) / nShards
	sg.ShardBounds = []int{0}
	cnt := 0
	for vert := 0; vert < v; vert++ {
		cnt += int(sg.InDeg[vert])
		if cnt >= perShard && len(sg.ShardBounds) < nShards {
			sg.ShardBounds = append(sg.ShardBounds, vert+1)
			cnt = 0
		}
	}
	for len(sg.ShardBounds) <= nShards {
		sg.ShardBounds = append(sg.ShardBounds, v)
	}
	return sg
}

// NumEdges returns the (possibly doubled) edge count.
func (sg *ShardedGraph) NumEdges() int { return len(sg.InSrc) }

// Intervals splits the vertex range into execution intervals
// (sub-iterations) so that each holds at most budgetEdges in-edges —
// GraphChi's adaptive memory-budget loading: a smaller heap means smaller
// intervals and more load passes. An empty graph yields no intervals.
func (sg *ShardedGraph) Intervals(budgetEdges int64) [][2]int {
	return sg.IntervalsIn(0, sg.NumVertices, budgetEdges)
}

// IntervalsIn splits the vertex sub-range [lo, hi) into execution
// intervals under the same budget rule. The engine's OOM degradation
// ladder uses it to re-split a failed interval at a halved budget;
// the returned intervals tile [lo, hi) exactly once, each non-empty
// (nil when lo >= hi). A single vertex whose in-degree alone exceeds
// the budget still gets its own interval — it cannot be split further.
func (sg *ShardedGraph) IntervalsIn(lo, hi int, budgetEdges int64) [][2]int {
	if lo >= hi {
		return nil
	}
	if budgetEdges < 1 {
		budgetEdges = 1
	}
	var out [][2]int
	start := lo
	var cnt int64
	for v := lo; v < hi; v++ {
		d := int64(sg.InDeg[v])
		if cnt > 0 && cnt+d > budgetEdges {
			out = append(out, [2]int{start, v})
			start = v
			cnt = 0
		}
		cnt += d
	}
	out = append(out, [2]int{start, hi})
	return out
}

// chunks splits the interval iv into at most workers contiguous vertex
// ranges of equal weight — a vertex weighs its in-degree + 1, the edges it
// brings to the build and the update plus itself — for the worker pool's
// build, update and extract alike. Ranges are offsets into the interval;
// they tile [0, n) exactly once, each non-empty, and are a pure function of
// (iv, workers), so a planned crash lands on the same chunk on every run
// with the same seed. Chunk j ends at the first vertex whose prefix weight
// reaches (j+1)/k of the total, so no chunk outweighs the ideal share by as
// much as its heaviest vertex.
func (sg *ShardedGraph) chunks(iv [2]int, workers int) [][2]int {
	a, n := iv[0], iv[1]-iv[0]
	k := min(workers, n)
	if k <= 0 {
		return nil
	}
	// prefix is the weight of the interval's first i vertices.
	prefix := func(i int) int64 { return sg.InStart[a+i] - sg.InStart[a] + int64(i) }
	total := prefix(n)
	out := make([][2]int, 0, k)
	from := 0
	for j := 1; j <= k; j++ {
		to := from + sort.Search(n-from, func(d int) bool { return prefix(from+d)*int64(k) >= int64(j)*total })
		if to > from {
			out = append(out, [2]int{from, to})
		}
		from = to
	}
	return out
}
