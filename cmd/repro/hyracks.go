package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/faults"
	"repro/internal/hyracks"
	"repro/internal/ir"
	"repro/internal/metrics"
)

// hyracksScale holds the shared flags of the Hyracks experiments.
type hyracksScale struct {
	nodes   int
	heap    int64
	unit    int64
	sizes   []int
	uniq    int
	keyLen  int
	recLen  int
	runRecs int
}

func hyracksFlags(fs *flag.FlagSet) *hyracksScale {
	s := &hyracksScale{sizes: []int{3, 5, 10, 14, 19}}
	fs.IntVar(&s.nodes, "nodes", 2, "cluster nodes (paper: 10 machines / 80 workers)")
	fs.Int64Var(&s.heap, "heap", 4<<20, "per-node heap budget in bytes (paper: 8GB)")
	fs.Int64Var(&s.unit, "unit", 96<<10, "bytes per paper-GB of dataset")
	fs.IntVar(&s.uniq, "uniq", 200, "unique tokens per 1000 words (web-data identifiers)")
	fs.IntVar(&s.keyLen, "keylen", 8, "ES key length")
	fs.IntVar(&s.recLen, "reclen", 32, "ES record length")
	fs.IntVar(&s.runRecs, "run", 4096, "ES records per sorted run")
	return s
}

type hyracksPoint struct {
	size int
	res  *hyracks.Result
}

// runHyracks runs one app over all dataset sizes for one program. fcfg,
// when non-nil, enables deterministic fault injection on every run.
func runHyracks(prog *ir.Program, app string, s *hyracksScale, fairCap int64, fcfg *faults.Config) ([]hyracksPoint, error) {
	var out []hyracksPoint
	for _, size := range s.sizes {
		total := int(int64(size) * s.unit)
		var parts [][]byte
		var job hyracks.Job
		if app == "WC" {
			corpus := datagen.CorpusSkewed(total, s.uniq, uint64(size))
			parts = datagen.Partition(corpus, s.nodes)
			job = hyracks.WordCountJob{}
		} else {
			nRecs := total / s.recLen
			recs := datagen.SortRecords(nRecs, s.keyLen, s.recLen-s.keyLen, uint64(size))
			var data []byte
			for _, r := range recs {
				data = append(data, r...)
			}
			per := (nRecs / s.nodes) * s.recLen
			parts = make([][]byte, s.nodes)
			for i := 0; i < s.nodes; i++ {
				lo := i * per
				hi := lo + per
				if i == s.nodes-1 {
					hi = len(data)
				}
				parts[i] = data[lo:hi]
			}
			job = hyracks.ExternalSortJob{KeyLen: s.keyLen, RecLen: s.recLen, RunRecords: s.runRecs}
		}
		res, err := hyracks.RunJob(prog, job, parts,
			cluster.Config{NumNodes: s.nodes, HeapPerNode: int(s.heap), Faults: fcfg}, fairCap, dfs.New())
		if err != nil {
			return nil, fmt.Errorf("%s size %d: %w", app, size, err)
		}
		out = append(out, hyracksPoint{size, res})
	}
	return out, nil
}

func fmtET(r *hyracks.Result) string {
	if r.OME {
		return fmt.Sprintf("OME(%.1f)", r.OMEAt.Seconds())
	}
	return fmt.Sprintf("%.1f", r.ET.Seconds())
}

// table3Cmd reproduces Table 3: ES and WC total times across dataset
// sizes, with OME(n) marking out-of-memory failures.
func table3Cmd(args []string) error {
	fs := flag.NewFlagSet("table3", flag.ExitOnError)
	s := hyracksFlags(fs)
	faultSpec := fs.String("faults", "", `deterministic fault-injection spec (e.g. "drop=0.05,crash=1,seed=7")`)
	rpt := reportFlag(fs)
	fs.Parse(args)
	fcfg, err := parseFaultFlag(*faultSpec)
	if err != nil {
		return err
	}
	p, p2, err := hyracks.BuildPrograms()
	if err != nil {
		return err
	}
	// Fairness cap for P': the per-node heap budget (the paper caps P' at
	// the same 8GB P gets).
	type runSet struct {
		label string
		prog  *ir.Program
		cap   int64
	}
	runs := []runSet{{"", p, 0}, {"'", p2, s.heap * 8}}
	results := map[string][]hyracksPoint{}
	rec := recoveryBook{}
	for _, app := range []string{"ES", "WC"} {
		for _, rs := range runs {
			pts, err := runHyracks(rs.prog, app, s, rs.cap, fcfg)
			if err != nil {
				return err
			}
			prgName := "P" + rs.label
			for _, pt := range pts {
				rpt.add(hyracksReport(fmt.Sprintf("table3/%s-%dGB", app, pt.size), prgName, pt.size, pt.res))
				rec.add(pt.res.Obs)
			}
			results[app+rs.label] = pts
		}
	}
	tbl := metrics.NewTable(
		fmt.Sprintf("Table 3: Hyracks total times (s) on %d nodes, heap %s MB/node, dataset unit %d KB",
			s.nodes, metrics.MB(s.heap), s.unit>>10),
		"Data", "ES", "ES'", "WC", "WC'", "GT-ES", "GT-ES'", "GT-WC", "GT-WC'")
	for i, size := range s.sizes {
		tbl.Row(fmt.Sprintf("%dGB", size),
			fmtET(results["ES"][i].res), fmtET(results["ES'"][i].res),
			fmtET(results["WC"][i].res), fmtET(results["WC'"][i].res),
			results["ES"][i].res.GT, results["ES'"][i].res.GT,
			results["WC"][i].res.GT, results["WC'"][i].res.GT)
	}
	tbl.Render(os.Stdout)
	if fcfg != nil {
		rec.print()
	}
	return rpt.flush()
}

// fig4bcCmd reproduces Figure 4(b) and 4(c): peak per-node memory of ES
// and WC across dataset sizes (bars: P, line: P').
func fig4bcCmd(args []string) error {
	fs := flag.NewFlagSet("fig4bc", flag.ExitOnError)
	s := hyracksFlags(fs)
	fs.Parse(args)
	p, p2, err := hyracks.BuildPrograms()
	if err != nil {
		return err
	}
	for _, app := range []string{"ES", "WC"} {
		pts, err := runHyracks(p, app, s, 0, nil)
		if err != nil {
			return err
		}
		pts2, err := runHyracks(p2, app, s, 0, nil)
		if err != nil {
			return err
		}
		fig := "4(b)"
		if app == "WC" {
			fig = "4(c)"
		}
		tbl := metrics.NewTable(
			fmt.Sprintf("Figure %s: %s peak memory per node (MB)", fig, app),
			"Data", app+" (P)", app+"' (P')", "P heap", "P' heap", "P' native")
		for i, size := range s.sizes {
			r, r2 := pts[i].res, pts2[i].res
			pm := metrics.MB(r.PM)
			if r.OME {
				pm = "OME"
			}
			tbl.Row(fmt.Sprintf("%dGB", size), pm, metrics.MB(r2.PM),
				metrics.MB(r.HeapPeak), metrics.MB(r2.HeapPeak), metrics.MB(r2.NativePeak))
		}
		tbl.Render(os.Stdout)
	}
	return nil
}
