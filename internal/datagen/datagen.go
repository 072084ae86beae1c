// Package datagen produces deterministic synthetic datasets standing in
// for the paper's inputs: power-law directed graphs shaped like
// twitter-2010 / LiveJournal (for GraphChi and GPS) and skewed text
// corpora shaped like the Yahoo AltaVista-derived text files (for
// Hyracks). Sizes are parameters so the same generators serve unit tests,
// benchmarks, and full experiment runs.
package datagen

import "fmt"

// rng is splitmix64: tiny, fast, deterministic across platforms.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// Graph is a directed graph in flat edge-list form, sorted by source.
type Graph struct {
	NumVertices int
	Src, Dst    []int32
	OutDeg      []int32
	InDeg       []int32
}

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.Src) }

// PowerLawGraph generates a directed graph with a heavy-tailed in-degree
// distribution: each edge's destination is drawn by preferential-style
// skew (low vertex IDs act as celebrities, as in the twitter-2010 graph),
// and out-degrees vary around the average. Deterministic in (v, e, seed).
func PowerLawGraph(v, e int, seed uint64) *Graph {
	if v < 2 {
		panic(fmt.Sprintf("datagen: graph needs >=2 vertices, got %d", v))
	}
	r := &rng{s: seed*0x9e3779b97f4a7c15 + 1}
	g := &Graph{
		NumVertices: v,
		Src:         make([]int32, 0, e),
		Dst:         make([]int32, 0, e),
		OutDeg:      make([]int32, v),
		InDeg:       make([]int32, v),
	}
	avg := e / v
	if avg < 1 {
		avg = 1
	}
	for s := 0; s < v && g.NumEdges() < e; s++ {
		// Out-degree: 1..4*avg, skewed low.
		d := 1 + r.intn(avg) + r.intn(avg)*r.intn(4)/2
		for k := 0; k < d && g.NumEdges() < e; k++ {
			// Destination: power-law preference for low IDs.
			f := r.float()
			t := int(f * f * f * float64(v))
			if t >= v {
				t = v - 1
			}
			if t == s {
				t = (t + 1) % v
			}
			g.Src = append(g.Src, int32(s))
			g.Dst = append(g.Dst, int32(t))
			g.OutDeg[s]++
			g.InDeg[t]++
		}
	}
	// Top up to exactly e edges with uniform sources.
	for g.NumEdges() < e {
		s := r.intn(v)
		t := r.intn(v)
		if t == s {
			t = (t + 1) % v
		}
		g.Src = append(g.Src, int32(s))
		g.Dst = append(g.Dst, int32(t))
		g.OutDeg[s]++
		g.InDeg[t]++
	}
	return g
}

// Words is the vocabulary used by Corpus, with Zipf-like draw weights.
var words = []string{
	"the", "of", "and", "to", "in", "a", "is", "that", "for", "it",
	"data", "graph", "page", "rank", "node", "edge", "query", "index",
	"web", "link", "user", "time", "system", "value", "key", "map",
	"reduce", "sort", "count", "word", "heap", "memory", "object",
	"facade", "iteration", "record", "cluster", "shard", "vertex",
	"stream", "batch", "join", "group", "hash", "scan", "store",
}

// Corpus generates approximately size bytes of whitespace-separated text
// with a Zipf-like word distribution, split into lines of ~60 chars.
// Deterministic in (size, seed).
func Corpus(size int, seed uint64) []byte {
	return CorpusSkewed(size, 0, seed)
}

// CorpusSkewed is Corpus with a controllable share of unique tokens: out
// of every 1000 words, uniquePerMille are fresh identifiers (URLs/IDs in
// web data), which makes the distinct-word set — and hence a word-count
// job's live hash map — grow with the dataset, the property behind the
// paper's WC OutOfMemory failures (Table 3).
func CorpusSkewed(size, uniquePerMille int, seed uint64) []byte {
	r := &rng{s: seed*0x51afd4ce + 7}
	out := make([]byte, 0, size+64)
	lineLen := 0
	uniq := 0
	var buf [24]byte
	for len(out) < size {
		var w []byte
		if uniquePerMille > 0 && r.intn(1000) < uniquePerMille {
			// Fresh token: "u" + counter in base 26.
			n := uniq
			uniq++
			k := len(buf)
			for {
				k--
				buf[k] = byte('a' + n%26)
				n /= 26
				if n == 0 {
					break
				}
			}
			k--
			buf[k] = 'u'
			w = buf[k:]
		} else {
			f := r.float()
			rank := int(f * f * float64(len(words)))
			if rank >= len(words) {
				rank = len(words) - 1
			}
			w = []byte(words[rank])
		}
		out = append(out, w...)
		lineLen += len(w) + 1
		if lineLen > 60 {
			out = append(out, '\n')
			lineLen = 0
		} else {
			out = append(out, ' ')
		}
	}
	out = append(out, '\n')
	return out
}

// Partition splits data into n nearly equal byte chunks on whitespace
// boundaries where possible.
func Partition(data []byte, n int) [][]byte {
	if n <= 1 {
		return [][]byte{data}
	}
	out := make([][]byte, 0, n)
	per := len(data) / n
	start := 0
	for i := 0; i < n; i++ {
		end := start + per
		if i == n-1 || end >= len(data) {
			end = len(data)
		} else {
			for end < len(data) && data[end] != ' ' && data[end] != '\n' {
				end++
			}
		}
		out = append(out, data[start:end])
		start = end
	}
	return out
}

// SortRecords generates n fixed-width records (key + payload) for the
// external-sort workload; keys are uniformly random strings.
func SortRecords(n int, keyLen, payloadLen int, seed uint64) [][]byte {
	r := &rng{s: seed*0xdeadbeef + 13}
	out := make([][]byte, n)
	for i := range out {
		rec := make([]byte, keyLen+payloadLen)
		for j := 0; j < keyLen; j++ {
			rec[j] = byte('a' + r.intn(26))
		}
		for j := keyLen; j < len(rec); j++ {
			rec[j] = byte('A' + r.intn(26))
		}
		out[i] = rec
	}
	return out
}
