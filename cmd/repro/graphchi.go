package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/datagen"
	"repro/internal/graphchi"
	"repro/internal/ir"
	"repro/internal/metrics"
	"repro/internal/offheap"
)

// table2Cmd reproduces Table 2: GraphChi PR and CC under three heap
// budgets, original (P) vs FACADE (P'), reporting ET/UT/LT/GT/PM.
func table2Cmd(args []string) error {
	fs := flag.NewFlagSet("table2", flag.ExitOnError)
	v := fs.Int("v", 20000, "vertices of the synthetic twitter-like graph")
	e := fs.Int("e", 300000, "edges")
	iters := fs.Int("iters", 2, "graph iterations")
	workers := fs.Int("workers", 4, "worker threads (load, update, extract)")
	baseHeap := fs.Int64("heap", 32<<20, "largest heap budget in bytes (scaled 8:6:4)")
	seed := fs.Uint64("seed", 42, "graph seed")
	faultSpec := fs.String("faults", "", `deterministic fault-injection spec (e.g. "crash=1,allocat=8,seed=7")`)
	tierDir := fs.String("tier-dir", "", "spill directory for P' runs' off-heap disk tier (requires -tier-high)")
	tierHigh := fs.Int("tier-high", 0, "DRAM high watermark in pages for P' runs (0 = no tier)")
	rpt := reportFlag(fs)
	fs.Parse(args)

	fcfg, err := parseFaultFlag(*faultSpec)
	if err != nil {
		return err
	}
	p, p2, err := graphchi.BuildPrograms()
	if err != nil {
		return err
	}
	var tiering *offheap.TierConfig
	if *tierHigh > 0 {
		tiering = &offheap.TierConfig{Dir: *tierDir, HighWater: *tierHigh}
	}
	heaps := []int64{*baseHeap, *baseHeap * 6 / 8, *baseHeap * 4 / 8}
	labels := []string{"8g", "6g", "4g"} // paper-relative labels
	tbl := metrics.NewTable(
		fmt.Sprintf("Table 2: GraphChi on synthetic twitter-like graph (%dV/%dE, scaled heaps)", *v, *e),
		"App", "ET(s)", "UT(s)", "LT(s)", "GT(s)", "PM(MB)", "dataObjs", "subIters")
	rec := recoveryBook{}
	var tierSpilled, tierPromoted int64

	for _, app := range []graphchi.App{graphchi.PageRank, graphchi.ConnectedComponents} {
		g := datagen.PowerLawGraph(*v, *e, *seed)
		sg := graphchi.Shard(g, 20, app == graphchi.ConnectedComponents)
		for hi, heap := range heaps {
			cfg := graphchi.Config{
				App: app, Workers: *workers, Iterations: *iters,
				MemoryBudget: heap / 2, Faults: fcfg, Tiering: tiering,
			}
			m1, _, err := graphchi.RunProgram(p, int(heap), sg, cfg)
			if err != nil {
				return fmt.Errorf("%s P: %w", app, err)
			}
			m2, _, err := graphchi.RunProgram(p2, int(heap), sg, cfg)
			if err != nil {
				return fmt.Errorf("%s P': %w", app, err)
			}
			tbl.Row(fmt.Sprintf("%s-%s", app, labels[hi]), m1.ET, m1.UT, m1.LT, m1.GT, metrics.MB(m1.PM), m1.DataObjects, m1.SubIters)
			tbl.Row(fmt.Sprintf("%s'-%s", app, labels[hi]), m2.ET, m2.UT, m2.LT, m2.GT, metrics.MB(m2.PM), m2.DataObjects, m2.SubIters)
			rpt.add(graphchiReport(fmt.Sprintf("table2/%s-%s", app, labels[hi]), "P", cfg, heap, m1))
			rpt.add(graphchiReport(fmt.Sprintf("table2/%s'-%s", app, labels[hi]), "P'", cfg, heap, m2))
			tierSpilled += m2.PagesSpilled
			tierPromoted += m2.PagesPromoted
			rec.add(m1.Obs, m2.Obs)
		}
	}
	tbl.Render(os.Stdout)
	if fcfg != nil {
		rec.print()
	}
	if tiering != nil {
		fmt.Printf("disk tier (high watermark %d pages): %d pages spilled, %d promoted across P' runs\n",
			tiering.HighWater, tierSpilled, tierPromoted)
	}
	return rpt.flush()
}

// fig4aCmd reproduces Figure 4(a): computational throughput (edges/s) as
// graph size grows, for PR, CC, PR', CC'.
func fig4aCmd(args []string) error {
	fs := flag.NewFlagSet("fig4a", flag.ExitOnError)
	baseV := fs.Int("v", 4000, "vertices of the smallest graph")
	baseE := fs.Int("e", 60000, "edges of the smallest graph")
	steps := fs.Int("steps", 4, "number of graph sizes")
	iters := fs.Int("iters", 3, "graph iterations")
	workers := fs.Int("workers", 4, "worker threads (load, update, extract)")
	heap := fs.Int64("heap", 16<<20, "heap budget")
	reps := fs.Int("reps", 3, "repetitions (throughput averaged)")
	fs.Parse(args)

	p, p2, err := graphchi.BuildPrograms()
	if err != nil {
		return err
	}
	tbl := metrics.NewTable("Figure 4(a): GraphChi throughput (edges/sec) vs graph size",
		"edges", "PR", "PR'", "CC", "CC'")
	for s := 1; s <= *steps; s++ {
		v := *baseV * s
		e := *baseE * s
		row := []any{e}
		for _, app := range []graphchi.App{graphchi.PageRank, graphchi.ConnectedComponents} {
			g := datagen.PowerLawGraph(v, e, 42)
			sg := graphchi.Shard(g, 20, app == graphchi.ConnectedComponents)
			cfg := graphchi.Config{App: app, Workers: *workers, Iterations: *iters, MemoryBudget: *heap / 2}
			// Average throughput across reps (single runs are noisy at
			// sub-second scale; the paper fits least-squares trend lines
			// over many runs).
			avg := func(prog *irProg) (float64, error) {
				total := 0.0
				for r := 0; r < *reps; r++ {
					m, _, err := graphchi.RunProgram(prog, int(*heap), sg, cfg)
					if err != nil {
						return 0, err
					}
					total += m.Throughput()
				}
				return total / float64(*reps), nil
			}
			t1, err := avg(p)
			if err != nil {
				return err
			}
			t2, err := avg(p2)
			if err != nil {
				return err
			}
			row = append(row, fmt.Sprintf("%.0f", t1), fmt.Sprintf("%.0f", t2))
		}
		tbl.Row(row...)
	}
	tbl.Render(os.Stdout)
	return nil
}

// irProg aliases the IR program type for the avg closure signature.
type irProg = ir.Program
