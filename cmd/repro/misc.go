package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/gps"
	"repro/internal/graphchi"
	"repro/internal/hyracks"
	"repro/internal/metrics"

	"repro/facade"
)

// objcountCmd reproduces the §4.1 object census: data-type heap objects in
// P vs P' (facades + pages) for a GraphChi PR run.
func objcountCmd(args []string) error {
	fs := flag.NewFlagSet("objcount", flag.ExitOnError)
	v := fs.Int("v", 10000, "vertices")
	e := fs.Int("e", 150000, "edges")
	rpt := reportFlag(fs)
	fs.Parse(args)

	p, p2, err := graphchi.BuildPrograms()
	if err != nil {
		return err
	}
	g := datagen.PowerLawGraph(*v, *e, 42)
	sg := graphchi.Shard(g, 20, false)
	cfg := graphchi.Config{App: graphchi.PageRank, Workers: 4, Iterations: 2, MemoryBudget: 8 << 20}
	const heapSize = 48 << 20

	m1, _, err := graphchi.RunProgram(p, heapSize, sg, cfg)
	if err != nil {
		return err
	}
	m2, _, err := graphchi.RunProgram(p2, heapSize, sg, cfg)
	if err != nil {
		return err
	}
	tbl := metrics.NewTable("§4.1 object census (GraphChi PR, data classes ChiVertex/ChiPointer/VertexDegree)",
		"program", "data heap objects", "native pages", "page records")
	tbl.Row("P", m1.DataObjects, 0, 0)
	tbl.Row("P'", m2.DataObjects, m2.Pages, m2.Records)
	tbl.Render(os.Stdout)
	fmt.Printf("  reduction: %.0fx fewer data-type heap objects\n",
		float64(m1.DataObjects)/float64(max64(m2.DataObjects, 1)))
	rpt.add(graphchiReport("objcount/P", "P", cfg, heapSize, m1))
	rpt.add(graphchiReport("objcount/P'", "P'", cfg, heapSize, m2))
	return rpt.flush()
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// speedCmd reproduces the compilation-speed numbers: the paper reports
// 752.7 (GraphChi), 990 (Hyracks), and 1102 (GPS) Jimple instructions per
// second for the Soot-based transform; we report IR instructions per
// second for ours.
func speedCmd(args []string) error {
	fs := flag.NewFlagSet("speed", flag.ExitOnError)
	reps := fs.Int("reps", 5, "repetitions to average")
	fs.Parse(args)

	targets := []speedTarget{
		{"GraphChi", map[string]string{"graphchi.fj": graphchi.Source}, graphchi.DataClasses},
		{"Hyracks", map[string]string{"hyracks.fj": hyracks.Source}, hyracks.DataClasses},
		{"GPS", map[string]string{"gps.fj": gps.Source}, gps.DataClasses},
	}

	tbl := metrics.NewTable("Transform compilation speed (paper: 753-1102 instr/s on Soot)",
		"framework", "instructions", "time(ms)", "instr/sec")
	for _, tg := range targets {
		p, err := facade.Compile(tg.sources)
		if err != nil {
			return fmt.Errorf("%s: %w", tg.name, err)
		}
		n := p.InstrsInClasses(tg.classes)
		best := time.Duration(1<<62 - 1)
		for r := 0; r < *reps; r++ {
			t0 := time.Now()
			if _, err := core.Transform(p, core.Options{DataClasses: tg.classes}); err != nil {
				return fmt.Errorf("%s: %w", tg.name, err)
			}
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		tbl.Row(tg.name, n, fmt.Sprintf("%.2f", float64(best.Microseconds())/1000),
			fmt.Sprintf("%.0f", float64(n)/best.Seconds()))
	}
	tbl.Render(os.Stdout)
	return nil
}

// speedTarget describes one framework data path for speedCmd.
type speedTarget struct {
	name    string
	sources map[string]string
	classes []string
}
