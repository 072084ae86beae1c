// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§4), plus ablations for the design choices DESIGN.md calls
// out. Absolute numbers reflect the interpreter substrate; the comparisons
// between P (suffix "/P") and the FACADE-transformed P' (suffix "/P2")
// reproduce the paper's shapes. Custom metrics reported per benchmark:
//
//	gc-ms/op        stop-the-world collection time
//	peakMB          peak memory (heap + native)
//	edges/s         GraphChi throughput (Figure 4a)
//	dataObjs        heap objects allocated for data classes
//	instr/s         transform compilation speed
//
// Run everything: go test -bench=. -benchmem .
package repro

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/facade"
	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/gps"
	"repro/internal/graphchi"
	"repro/internal/heap"
	"repro/internal/hyracks"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/offheap"
	"repro/internal/vm"
)

// benchPair caches compiled (P, P') pairs across benchmarks.
var benchProgs = map[string][2]*ir.Program{}

func programs(b *testing.B, name string, build func() (*ir.Program, *ir.Program, error)) (*ir.Program, *ir.Program) {
	b.Helper()
	if pair, ok := benchProgs[name]; ok {
		return pair[0], pair[1]
	}
	p, p2, err := build()
	if err != nil {
		b.Fatal(err)
	}
	benchProgs[name] = [2]*ir.Program{p, p2}
	return p, p2
}

// ---------------------------------------------------------------------------
// Table 2: GraphChi PR/CC across heap budgets.

func BenchmarkTable2GraphChi(b *testing.B) {
	p, p2 := programs(b, "graphchi", graphchi.BuildPrograms)
	g := datagen.PowerLawGraph(8000, 120000, 42)
	for _, app := range []graphchi.App{graphchi.PageRank, graphchi.ConnectedComponents} {
		sg := graphchi.Shard(g, 20, app == graphchi.ConnectedComponents)
		for _, hp := range []struct {
			label string
			bytes int64
		}{{"8g", 24 << 20}, {"6g", 18 << 20}, {"4g", 12 << 20}} {
			for _, pr := range []struct {
				label string
				prog  *ir.Program
			}{{"P", p}, {"P2", p2}} {
				b.Run(fmt.Sprintf("%s-%s/%s", app, hp.label, pr.label), func(b *testing.B) {
					cfg := graphchi.Config{App: app, Workers: 4, Iterations: 2, MemoryBudget: hp.bytes / 2}
					var last *graphchi.Metrics
					for i := 0; i < b.N; i++ {
						m, err := vm.New(pr.prog, vm.Config{HeapSize: int(hp.bytes)})
						if err != nil {
							b.Fatal(err)
						}
						met, _, err := graphchi.Run(m, sg, cfg)
						if err != nil {
							b.Fatal(err)
						}
						last = met
					}
					reportGraphchi(b, last)
				})
			}
		}
	}
}

func reportGraphchi(b *testing.B, m *graphchi.Metrics) {
	b.ReportMetric(float64(m.GT.Milliseconds()), "gc-ms/op")
	b.ReportMetric(float64(m.PM)/(1<<20), "peakMB")
	b.ReportMetric(float64(m.DataObjects), "dataObjs")
	b.ReportMetric(m.Throughput(), "edges/s")
	// Pause-time distribution of the last run, from the observability
	// snapshot (latency shape matters as much as total GT for the paper's
	// argument; a P' run with zero collections reports zeros).
	pauses := m.Obs.Histograms[obs.HistGCPause]
	b.ReportMetric(float64(pauses.Quantile(0.5))/1e6, "p50pause-ms")
	b.ReportMetric(float64(pauses.Quantile(0.95))/1e6, "p95pause-ms")
	b.ReportMetric(float64(pauses.Max)/1e6, "maxpause-ms")
}

// ---------------------------------------------------------------------------
// Figure 4(a): throughput vs graph size.

func BenchmarkFigure4aThroughput(b *testing.B) {
	p, p2 := programs(b, "graphchi", graphchi.BuildPrograms)
	for s := 1; s <= 4; s++ {
		g := datagen.PowerLawGraph(2000*s, 30000*s, 42)
		for _, app := range []graphchi.App{graphchi.PageRank, graphchi.ConnectedComponents} {
			sg := graphchi.Shard(g, 20, app == graphchi.ConnectedComponents)
			for _, pr := range []struct {
				label string
				prog  *ir.Program
			}{{"P", p}, {"P2", p2}} {
				b.Run(fmt.Sprintf("%s/edges-%d/%s", app, 30000*s, pr.label), func(b *testing.B) {
					var last *graphchi.Metrics
					for i := 0; i < b.N; i++ {
						m, err := vm.New(pr.prog, vm.Config{HeapSize: 24 << 20})
						if err != nil {
							b.Fatal(err)
						}
						met, _, err := graphchi.Run(m, sg, graphchi.Config{
							App: app, Workers: 4, Iterations: 2, MemoryBudget: 12 << 20,
						})
						if err != nil {
							b.Fatal(err)
						}
						last = met
					}
					b.ReportMetric(last.Throughput(), "edges/s")
				})
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Table 3 and Figures 4(b)/4(c): Hyracks ES/WC across dataset sizes.

func hyracksDataset(app string, size int) ([][]byte, hyracks.Job) {
	const nodes = 2
	unit := int64(48 << 10)
	total := int(int64(size) * unit)
	if app == "WC" {
		corpus := datagen.CorpusSkewed(total, 200, uint64(size))
		return datagen.Partition(corpus, nodes), hyracks.WordCountJob{}
	}
	const keyLen, recLen = 8, 32
	nRecs := total / recLen
	recs := datagen.SortRecords(nRecs, keyLen, recLen-keyLen, uint64(size))
	var data []byte
	for _, r := range recs {
		data = append(data, r...)
	}
	per := (nRecs / nodes) * recLen
	parts := make([][]byte, nodes)
	for i := 0; i < nodes; i++ {
		lo := i * per
		hi := lo + per
		if i == nodes-1 {
			hi = len(data)
		}
		parts[i] = data[lo:hi]
	}
	return parts, hyracks.ExternalSortJob{KeyLen: keyLen, RecLen: recLen, RunRecords: 2048}
}

func benchHyracks(b *testing.B, app string) {
	p, p2 := programs(b, "hyracks", hyracks.BuildPrograms)
	heap := 4 << 20
	for _, size := range []int{3, 5, 10, 14, 19} {
		parts, job := hyracksDataset(app, size)
		for _, pr := range []struct {
			label string
			prog  *ir.Program
			cap   int64
		}{{"P", p, 0}, {"P2", p2, int64(heap) * 8}} {
			b.Run(fmt.Sprintf("%dGB/%s", size, pr.label), func(b *testing.B) {
				var last *hyracks.Result
				for i := 0; i < b.N; i++ {
					res, err := hyracks.RunJob(pr.prog, job, parts,
						cluster.Config{NumNodes: 2, HeapPerNode: heap}, pr.cap, dfs.New())
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				b.ReportMetric(float64(last.GT.Milliseconds()), "gc-ms/op")
				b.ReportMetric(float64(last.PM)/(1<<20), "peakMB")
				if last.OME {
					b.ReportMetric(1, "OME")
				} else {
					b.ReportMetric(0, "OME")
				}
			})
		}
	}
}

// Table 3 and Figures 4(b)/(c) are the same runs: ns/op, gc-ms/op and OME
// are Table 3's columns, and the peakMB column is Figure 4(b) for ES and
// Figure 4(c) for WC.
func BenchmarkTable3HyracksES(b *testing.B) { benchHyracks(b, "ES") }
func BenchmarkTable3HyracksWC(b *testing.B) { benchHyracks(b, "WC") }

// ---------------------------------------------------------------------------
// §4.3: GPS.

func BenchmarkGPSSection43(b *testing.B) {
	p, p2 := programs(b, "gps", gps.BuildPrograms)
	g := datagen.PowerLawGraph(6000, 90000, 100)
	for _, app := range []gps.App{gps.PageRank, gps.KMeans, gps.RandomWalk} {
		for _, pr := range []struct {
			label string
			prog  *ir.Program
		}{{"P", p}, {"P2", p2}} {
			b.Run(fmt.Sprintf("%s/%s", app, pr.label), func(b *testing.B) {
				var last *gps.Result
				for i := 0; i < b.N; i++ {
					res, err := gps.Run(pr.prog, g, gps.Config{
						App: app, Nodes: 2, HeapPerNode: 16 << 20, Supersteps: 4, Seed: 7,
					})
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				b.ReportMetric(float64(last.GT.Milliseconds()), "gc-ms/op")
				b.ReportMetric(float64(last.PM)/(1<<20), "peakMB")
			})
		}
	}
}

// ---------------------------------------------------------------------------
// §4.1 object census.

func BenchmarkObjectBound(b *testing.B) {
	p, p2 := programs(b, "graphchi", graphchi.BuildPrograms)
	g := datagen.PowerLawGraph(4000, 60000, 11)
	sg := graphchi.Shard(g, 20, false)
	for _, pr := range []struct {
		label string
		prog  *ir.Program
	}{{"P", p}, {"P2", p2}} {
		b.Run(pr.label, func(b *testing.B) {
			var last *graphchi.Metrics
			for i := 0; i < b.N; i++ {
				m, err := vm.New(pr.prog, vm.Config{HeapSize: 32 << 20})
				if err != nil {
					b.Fatal(err)
				}
				met, _, err := graphchi.Run(m, sg, graphchi.Config{
					App: graphchi.PageRank, Workers: 4, Iterations: 2, MemoryBudget: 8 << 20,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = met
			}
			b.ReportMetric(float64(last.DataObjects), "dataObjs")
			b.ReportMetric(float64(last.Pages), "pages")
		})
	}
}

// ---------------------------------------------------------------------------
// §4.1-4.3 compilation speed.

func BenchmarkTransformSpeed(b *testing.B) {
	targets := []struct {
		name    string
		src     string
		classes []string
	}{
		{"GraphChi", graphchi.Source, graphchi.DataClasses},
		{"Hyracks", hyracks.Source, hyracks.DataClasses},
		{"GPS", gps.Source, gps.DataClasses},
	}
	for _, tg := range targets {
		b.Run(tg.name, func(b *testing.B) {
			b.ReportAllocs()
			p, err := facade.Compile(map[string]string{"b.fj": tg.src})
			if err != nil {
				b.Fatal(err)
			}
			n := p.InstrsInClasses(tg.classes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Transform(p, core.Options{DataClasses: tg.classes}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			perOp := b.Elapsed().Seconds() / float64(b.N)
			if perOp > 0 {
				b.ReportMetric(float64(n)/perOp, "instr/s")
			}
		})
	}
}

// BenchmarkInlineShare prices the inliner on the daemon's cold-compile
// path: per load scenario, the time analysis.Inline takes over a freshly
// compiled P as a share of the facade.Compile that produced it. The pass
// mutates its input, so each iteration compiles first and times the two
// stages separately.
func BenchmarkInlineShare(b *testing.B) {
	for _, sc := range load.Scenarios() {
		var data []string
		for _, src := range sc.Sources {
			data = append(data, facade.DataClassesDirective(src)...)
		}
		b.Run(sc.Name, func(b *testing.B) {
			b.ReportAllocs()
			var compile, inline time.Duration
			for i := 0; i < b.N; i++ {
				start := time.Now()
				p, err := facade.Compile(sc.Sources)
				if err != nil {
					b.Fatal(err)
				}
				compile += time.Since(start)
				// The closure is the transform's own first step, computed
				// early; it is not part of the pass.
				closure, err := core.DataClosure(p, core.Options{DataClasses: data})
				if err != nil {
					b.Fatal(err)
				}
				start = time.Now()
				analysis.Inline(p, closure)
				inline += time.Since(start)
			}
			b.ReportMetric(float64(inline.Microseconds())/float64(b.N), "inline-us/op")
			b.ReportMetric(100*inline.Seconds()/compile.Seconds(), "inline-%-of-compile")
		})
	}
}

// BenchmarkWarmJob prices one daemon-sized job without the daemon: each op
// runs the next of the four load scenarios (built as the daemon builds
// them) through facade.RunContext, on that scenario's warm VM ("warm", the
// daemon's path after a job's first run) or on a fresh VM ("cold"). ns, B
// and allocs are per job; docs/PERFORMANCE.md ("Per-job setup") profiles
// the warm leg.
func BenchmarkWarmJob(b *testing.B) {
	type job struct {
		prog *ir.Program
		heap int
		warm *vm.VM
	}
	var jobs []*job
	for _, sc := range load.Scenarios() {
		var data []string
		for _, src := range sc.Sources {
			data = append(data, facade.DataClassesDirective(src)...)
		}
		_, p2 := programs(b, "load/"+sc.Name, func() (*ir.Program, *ir.Program, error) {
			return facade.Build(sc.Sources, data)
		})
		jobs = append(jobs, &job{prog: p2, heap: sc.HeapSize})
	}
	run := func(b *testing.B, j *job, warm bool) {
		opts := []facade.Option{facade.WithHeapSize(j.heap), facade.WithRandSeed(1)}
		if warm && j.warm != nil {
			opts = append(opts, facade.WithReusedVM(j.warm))
		}
		res, err := facade.RunContext(context.Background(), j.prog, opts...)
		if err != nil {
			b.Fatal(err)
		}
		res.Close()
		j.warm = res.VM
	}
	for _, warm := range []bool{true, false} {
		name := "cold"
		if warm {
			name = "warm"
		}
		b.Run(name, func(b *testing.B) {
			for _, j := range jobs {
				run(b, j, warm) // builds each warm VM outside the timer
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(b, jobs[i%len(jobs)], warm)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablations (§2.4, §3.6 design choices).

// BenchmarkAblationPageRecycling shows §2.1's "by recycling pages, we often
// need only a small number of pages" without a knob: ten times the iterations
// create the same pages and recycle ten times as many.
func BenchmarkAblationPageRecycling(b *testing.B) {
	for _, iters := range []int{10, 100} {
		b.Run(fmt.Sprintf("iters-%d", iters), func(b *testing.B) {
			var st offheap.Stats
			for i := 0; i < b.N; i++ {
				rt := offheap.NewRuntime(nil)
				s := rt.NewIterScope(nil, 0)
				for it := 0; it < iters; it++ {
					s.IterationStart()
					for j := 0; j < 1000; j++ {
						if _, err := s.Current().AllocRecord(nil, 1, 48); err != nil {
							b.Fatal(err)
						}
					}
					s.IterationEnd()
				}
				s.Close()
				st = rt.Stats()
			}
			b.ReportMetric(float64(st.PagesCreated), "pagesCreated")
			b.ReportMetric(float64(st.PagesRecycled), "pagesRecycled")
		})
	}
}

// BenchmarkAblationHeaderFootprint compares the bytes a dataset occupies as
// managed objects (12/16-byte headers) vs page records (4/8-byte headers),
// the §2.4 space argument.
func BenchmarkAblationHeaderFootprint(b *testing.B) {
	src := `
class Pair { int a; int b; }
class Main {
    static void main() {
        Pair[] ps = new Pair[10000];
        for (int i = 0; i < ps.length; i = i + 1) {
            Pair p = new Pair();
            p.a = i;
            p.b = i + 1;
            ps[i] = p;
        }
        Sys.println(ps.length);
    }
}
`
	prog, err := facade.Compile(map[string]string{"p.fj": src})
	if err != nil {
		b.Fatal(err)
	}
	p2, err := facade.Transform(prog, facade.TransformOptions{DataClasses: []string{"Pair", "Main"}})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("heap-objects", func(b *testing.B) {
		var bytesUsed int64
		for i := 0; i < b.N; i++ {
			res, err := facade.Run(prog, facade.WithHeapSize(16<<20))
			if err != nil {
				b.Fatal(err)
			}
			bytesUsed = res.VM.Heap.Stats().AllocBytes
			res.Close()
		}
		b.ReportMetric(float64(bytesUsed)/10000, "B/record")
	})
	b.Run("page-records", func(b *testing.B) {
		var bytesUsed int64
		for i := 0; i < b.N; i++ {
			res, err := facade.Run(p2, facade.WithHeapSize(16<<20))
			if err != nil {
				b.Fatal(err)
			}
			bytesUsed = res.VM.RT.Stats().BytesInUse
			res.Close()
		}
		b.ReportMetric(float64(bytesUsed)/10000, "B/record")
	})
}

// BenchmarkAblationAllocationPath compares raw allocation throughput:
// nursery TLAB allocation + GC vs page bump allocation + iteration free.
func BenchmarkAblationAllocationPath(b *testing.B) {
	src := `
class Cell { long v; }
class Main {
    static void main() {
        for (int i = 0; i < 50000; i = i + 1) {
            Cell c = new Cell();
            c.v = i;
        }
        Sys.println(0);
    }
}
`
	prog, err := facade.Compile(map[string]string{"c.fj": src})
	if err != nil {
		b.Fatal(err)
	}
	p2, err := facade.Transform(prog, facade.TransformOptions{DataClasses: []string{"Cell", "Main"}})
	if err != nil {
		b.Fatal(err)
	}
	for _, pr := range []struct {
		name string
		p    *ir.Program
	}{{"heap", prog}, {"pages", p2}} {
		b.Run(pr.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := facade.Run(pr.p, facade.WithHeapSize(8<<20))
				if err != nil {
					b.Fatal(err)
				}
				res.Close()
			}
		})
	}
}

// BenchmarkAblationParallelMark measures the whole collector on 1 vs 4 GC
// workers (the paper's runs use HotSpot's parallel collector) over a wide
// live graph: one old-generation root array fanning out to 150k short
// chains (marking a single linked list cannot parallelize). "full" times a
// full collection — the mark, the chunked forwarding and reference update
// over the mark bitmap, and the serial slide; "minor" times the scavenge
// of the 300k chains from the nursery, found through the root array's
// remembered-set slots.
func BenchmarkAblationParallelMark(b *testing.B) {
	src := "class Object { }\nclass Node { int v; Node next; }\n"
	files, err := stdlibFreeParse(src)
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []string{"full", "minor"} {
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/workers-%d", kind, workers), func(b *testing.B) {
				nodeArr := lang.NewArrayTypes([]*lang.Type{lang.ClassType("Node")}) // Node[] at 0
				hp := heap.New(heap.Config{HeapSize: 96 << 20, GCWorkers: workers}, files, nodeArr)
				tc := hp.RegisterThread()
				tc.EndExternal()
				defer func() {
					tc.BeginExternal()
					hp.UnregisterThread(tc)
				}()
				node := files.Class("Node")
				next := node.FindField("next")
				var root heap.Addr
				hp.AddRoots(heap.RootFunc(func(visit func(heap.Addr) heap.Addr) {
					root = visit(root)
				}))
				const fanout = 150000
				arr, err := hp.AllocArray(tc, 0, fanout) // large: the old generation
				if err != nil {
					b.Fatal(err)
				}
				root = arr
				putRef := func(obj heap.Addr, off int, v heap.Addr) {
					binary.LittleEndian.PutUint64(hp.Bytes(obj)[off:], uint64(v))
					hp.Barrier(obj+heap.Addr(off), v)
				}
				// build hangs a fresh two-node chain off every array slot.
				build := func() {
					for i := 0; i < fanout; i++ {
						a, err := hp.AllocObject(tc, node)
						if err != nil {
							b.Fatal(err)
						}
						c, err := hp.AllocObject(tc, node)
						if err != nil {
							b.Fatal(err)
						}
						putRef(a, heap.ScalarHeader+next.Offset, c)
						putRef(root, heap.ArrayHeader+i*8, a)
					}
				}
				build()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if kind == "minor" {
						// Drop the last chains and compact them away, then
						// build fresh ones in the nursery, all untimed.
						b.StopTimer()
						clear(hp.Bytes(root)[heap.ArrayHeader : heap.ArrayHeader+fanout*8])
						if err := hp.Collect(tc, true); err != nil {
							b.Fatal(err)
						}
						build()
						b.StartTimer()
					}
					if err := hp.Collect(tc, kind == "full"); err != nil {
						b.Fatal(err)
					}
				}
				if st := hp.Stats(); kind == "minor" && st.MinorGCs != int64(b.N) {
					b.Fatalf("%d minor collections for %d iterations: one escalated", st.MinorGCs, b.N)
				}
			})
		}
	}
}

// stdlibFreeParse builds a hierarchy without the FJ stdlib (heap-level
// benches need only the class layout).
func stdlibFreeParse(src string) (*lang.Hierarchy, error) {
	f, err := lang.Parse("bench.fj", src)
	if err != nil {
		return nil, err
	}
	return lang.BuildHierarchy(f)
}

// BenchmarkAblationDCE measures liveness-driven dead-code elimination on
// the GraphChi PageRank data path (Table 2's workload): interpreted
// instruction count with and without DCE, same output either way.
func BenchmarkAblationDCE(b *testing.B) {
	p, err := facade.Compile(map[string]string{"graphchi.fj": graphchi.Source})
	if err != nil {
		b.Fatal(err)
	}
	g := datagen.PowerLawGraph(2000, 30000, 42)
	sg := graphchi.Shard(g, 10, false)
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"nodce", true}, {"dce", false}} {
		p2, err := core.Transform(p, core.Options{DataClasses: graphchi.DataClasses, DisableDCE: mode.disable})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(mode.name, func(b *testing.B) {
			var last *graphchi.Metrics
			for i := 0; i < b.N; i++ {
				m, err := vm.New(p2, vm.Config{HeapSize: 16 << 20})
				if err != nil {
					b.Fatal(err)
				}
				met, _, err := graphchi.Run(m, sg, graphchi.Config{
					App: graphchi.PageRank, Workers: 2, Iterations: 2, MemoryBudget: 8 << 20,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = met
			}
			b.ReportMetric(float64(last.Obs.Counters[obs.CtrInstructions]), "interp-instrs")
			b.ReportMetric(float64(p2.DCERemoved), "dce-removed")
		})
	}
}

// BenchmarkInterpreter is the dispatch layer's own case (north-star 1): two
// plain-VM programs with no page store and next to no GC — recursive fib,
// which is calls and frames, and a sieve over an int array, which is the
// counted loops and element accesses the engines' inner loops are made of —
// each reporting nanoseconds per IR instruction beside the wall clock.
func BenchmarkInterpreter(b *testing.B) {
	cases := []struct{ name, src string }{
		{"fib", `
class Main {
    static int fib(int n) {
        if (n < 2) { return n; }
        return Main.fib(n - 1) + Main.fib(n - 2);
    }
    static void main() { Sys.println(Main.fib(22)); }
}
class D { int x; }
`},
		{"loop-array", `
class Main {
    static void main() {
        int n = 200000;
        int[] sieve = new int[n];
        int primes = 0;
        for (int i = 2; i < n; i = i + 1) {
            if (sieve[i] == 0) {
                primes = primes + 1;
                for (int j = i + i; j < n; j = j + i) { sieve[j] = 1; }
            }
        }
        double mean = 0.0;
        for (int i = 0; i < n; i = i + 1) { mean = mean + sieve[i]; }
        Sys.println(primes);
        Sys.println(mean / n);
    }
}
class D { int x; }
`},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			prog, err := facade.Compile(map[string]string{"f.fj": c.src})
			if err != nil {
				b.Fatal(err)
			}
			var instrs int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := facade.Run(prog, facade.WithHeapSize(8<<20))
				if err != nil {
					b.Fatal(err)
				}
				instrs += res.Stats().VM.Instructions
				res.Close()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
		})
	}

	// The capacity probe (ROADMAP 3(b)): loop-array-2t runs the loop-array
	// kernel on one thread of a VM, then on two threads of the same VM at
	// once, and reports the two-thread time per thread's IR instruction and
	// scaling = two-thread time / one-thread time (1.0 is perfect).
	// xorshift-2g is the same measurement of a pure-Go dependent ALU loop:
	// the runner's own two-goroutine ratio. Near 2 on both is a runner
	// delivering one core. xorshift is one dependent chain and misses some
	// lost capacity — the VM leg has read ~2 beside a xorshift of ~1 right
	// after the machine idled (docs/PERFORMANCE.md, "The capacity probe") —
	// so take several readings before blaming the VM.
	b.Run("loop-array-2t", func(b *testing.B) {
		prog, err := facade.Compile(map[string]string{"f.fj": cases[1].src})
		if err != nil {
			b.Fatal(err)
		}
		machine, err := vm.New(prog, vm.Config{HeapSize: 8 << 20})
		if err != nil {
			b.Fatal(err)
		}
		var threads [2]*vm.Thread
		for i := range threads {
			if threads[i], err = machine.NewThread(nil); err != nil {
				b.Fatal(err)
			}
			defer threads[i].Close()
		}
		kernel := func(t *vm.Thread) {
			if _, err := t.InvokeStatic("Main", "main"); err != nil {
				b.Error(err)
			}
		}
		kernel(threads[0])
		instrs := machine.Obs().Snapshot().Counters[obs.CtrInstructions]
		kernel(threads[1]) // both stacks and heap pages touched before timing
		one, two := scaling(b, func() { kernel(threads[0]) }, func(i int) { kernel(threads[i]) })
		b.ReportMetric(float64(two.Nanoseconds())/float64(int64(b.N)*instrs), "ns/instr")
		b.ReportMetric(float64(two)/float64(one), "scaling")
	})
	b.Run("xorshift-2g", func(b *testing.B) {
		var sink [2]uint64
		loop := func(i int) {
			x := uint64(88172645463325252) + uint64(i)
			for k := 0; k < 1e8; k++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			sink[i] = x
		}
		one, two := scaling(b, func() { loop(0) }, loop)
		b.ReportMetric(float64(two)/float64(one), "scaling")
	})
}

// scaling times b.N runs of solo on one goroutine and b.N runs of duo(0)
// and duo(1) on two goroutines at once, and returns the two totals.
func scaling(b *testing.B, solo func(), duo func(i int)) (one, two time.Duration) {
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		start := time.Now()
		solo()
		one += time.Since(start)
		start = time.Now()
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() { defer wg.Done(); duo(i) }()
		}
		wg.Wait()
		two += time.Since(start)
	}
	return one, two
}
