package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/datagen"
	"repro/internal/faults"
	"repro/internal/gps"
	"repro/internal/metrics"
)

// gpsCmd reproduces §4.3: GPS PageRank, k-means, and random walk over the
// LiveJournal-like graph family, reporting the P vs P' reductions the
// paper quotes (ET 3-15.4%, GT 10-39.8%, space up to 14.4%).
func gpsCmd(args []string) error {
	fs := flag.NewFlagSet("gps", flag.ExitOnError)
	v := fs.Int("v", 6000, "vertices of the base graph")
	e := fs.Int("e", 90000, "edges of the base graph")
	scales := fs.Int("scales", 3, "number of supergraph scales (LiveJournal + synthetic supergraphs)")
	nodes := fs.Int("nodes", 2, "cluster nodes")
	heap := fs.Int64("heap", 16<<20, "per-node heap")
	steps := fs.Int("steps", 4, "supersteps")
	faultSpec := fs.String("faults", "", `deterministic fault-injection spec (e.g. "drop=0.05,crash=1,seed=7")`)
	ckpt := fs.Int("ckpt", 1, "checkpoint every k supersteps (recovery rewinds to the last checkpoint)")
	rpt := reportFlag(fs)
	fs.Parse(args)

	fcfg, err := parseFaultFlag(*faultSpec)
	if err != nil {
		return err
	}
	p, p2, err := gps.BuildPrograms()
	if err != nil {
		return err
	}
	tbl := metrics.NewTable("§4.3: GPS on LiveJournal-like graphs (P vs P')",
		"app", "graph", "ET(s)", "ET'(s)", "ΔET%", "GT(s)", "GT'(s)", "ΔGT%", "PM(MB)", "PM'(MB)", "ΔPM%")
	rec := recoveryBook{}
	for _, app := range []gps.App{gps.PageRank, gps.KMeans, gps.RandomWalk} {
		for s := 1; s <= *scales; s++ {
			g := datagen.PowerLawGraph(*v*s, *e*s, uint64(100+s))
			cfg := gps.Config{App: app, Nodes: *nodes, HeapPerNode: int(*heap), Supersteps: *steps, Seed: 7, Faults: fcfg, CheckpointInterval: *ckpt}
			r1, err := gps.Run(p, g, cfg)
			if err != nil {
				return fmt.Errorf("%s x%d P: %w", app, s, err)
			}
			r2, err := gps.Run(p2, g, cfg)
			if err != nil {
				return fmt.Errorf("%s x%d P': %w", app, s, err)
			}
			name := fmt.Sprintf("gps/%s-x%d", app, s)
			rpt.add(gpsReport(name, "P", cfg, g.NumEdges(), r1))
			rpt.add(gpsReport(name, "P'", cfg, g.NumEdges(), r2))
			rec.add(r1.Obs, r2.Obs)
			tbl.Row(app.String(), fmt.Sprintf("x%d(%dE)", s, g.NumEdges()),
				r1.ET, r2.ET, pct(r1.ET.Seconds(), r2.ET.Seconds()),
				r1.GT, r2.GT, pct(r1.GT.Seconds(), r2.GT.Seconds()),
				metrics.MB(r1.PM), metrics.MB(r2.PM), pct(float64(r1.PM), float64(r2.PM)))
		}
	}
	tbl.Render(os.Stdout)
	if fcfg != nil {
		rec.print()
	}
	return rpt.flush()
}

// parseFaultFlag turns a -faults spec into a config (nil when empty).
func parseFaultFlag(spec string) (*faults.Config, error) {
	if spec == "" {
		return nil, nil
	}
	c, err := faults.Parse(spec)
	if err != nil {
		return nil, fmt.Errorf("-faults: %w", err)
	}
	return &c, nil
}

// pct formats the reduction of b relative to a.
func pct(a, b float64) string {
	if a == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", 100*(a-b)/a)
}
