package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/load"
	"repro/internal/server"
)

// loadCmd drives a live daemon with the deterministic workload generator
// (internal/load) and reports sustained throughput, latency percentiles,
// backpressure, and memory health. The -seed contract: two runs with the
// same seed produce bit-identical per-job results (-results files diff
// clean), so the harness doubles as a correctness check under load;
// internal/load's TestRunDeterministicAcrossRuns holds that contract:
//
//	repro load -seed 7 -jobs 40 -clients 8 -results r1.txt
//	repro load -seed 7 -jobs 40 -clients 8 -results r2.txt   # diff r1 r2
func loadCmd(args []string) error {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	portFile := fs.String("portfile", server.DefaultPortFile(), "daemon discovery file")
	seed := fs.Int64("seed", 1, "workload seed (same seed = bit-identical job outputs)")
	jobs := fs.Int("jobs", 100, "total jobs to push through the daemon")
	clients := fs.Int("clients", 16, "concurrent clients (closed loop) or in-flight cap (open loop)")
	rate := fs.Float64("rate", 0, "open-loop arrival rate in jobs/s (0 = closed loop)")
	tenants := fs.Int("tenants", 1, "spread jobs across this many tenants")
	mixStr := fs.String("mix", "", "scenario mix, e.g. pagerank=2,wordcount=1 (default: all equally)")
	faultEvery := fs.Int("fault-every", 0, "give every Nth job an injected-fault schedule (0 = off)")
	quotaEvery := fs.Int("quota-every", 0, "give every Nth job a 1-page quota, forcing an OME (0 = off)")
	retries := fs.Int("retries", 16, "client-side resubmits per job on 429/503")
	jsonPath := fs.String("json", "", "write the full facade.load/v1 report here")
	resultsPath := fs.String("results", "", "write the deterministic per-job results file here")
	list := fs.Bool("list", false, "list scenarios and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, s := range load.Scenarios() {
			fmt.Printf("%-12s heap %d MiB, transform %v\n", s.Name, s.HeapSize>>20, s.Transform)
		}
		return nil
	}

	mix, err := parseMix(*mixStr)
	if err != nil {
		return err
	}

	// Load drives a daemon someone else owns: discover only, never
	// auto-start — measuring a daemon this process just booted (cold
	// pools, replay in progress) would not be a sustained measurement.
	c, err := server.Discover(*portFile)
	if err != nil {
		return fmt.Errorf("no daemon (start one with `repro serve`): %w", err)
	}

	rep, err := load.Run(c, load.Config{
		Seed:       *seed,
		Jobs:       *jobs,
		Clients:    *clients,
		Rate:       *rate,
		Tenants:    *tenants,
		Mix:        mix,
		FaultEvery: *faultEvery,
		QuotaEvery: *quotaEvery,
		MaxRetries: *retries,
		Progress:   os.Stdout,
	})
	if err != nil {
		return err
	}
	printReport(rep)

	if *jsonPath != "" {
		if err := writeTo(*jsonPath, rep.Encode); err != nil {
			return err
		}
	}
	if *resultsPath != "" {
		if err := writeTo(*resultsPath, rep.WriteResults); err != nil {
			return err
		}
	}
	return nil
}

func parseMix(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	mix := map[string]int{}
	for _, part := range strings.Split(s, ",") {
		name, wstr, found := strings.Cut(strings.TrimSpace(part), "=")
		w := 1
		if found {
			var err error
			if w, err = strconv.Atoi(wstr); err != nil {
				return nil, fmt.Errorf("bad -mix entry %q", part)
			}
		}
		mix[name] = w
	}
	return mix, nil
}

func writeTo(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printReport(r *load.Report) {
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	fmt.Printf("\nload: %d jobs, %d clients, %s loop, seed %d\n", r.Jobs, r.Clients, r.Mode, r.Seed)
	fmt.Printf("  throughput   %8.1f jobs/s  (wall %.2fs)\n", r.JobsPerSec, float64(r.WallNS)/1e9)
	fmt.Printf("  latency      p50 %.1fms  p95 %.1fms  p99 %.1fms  max %.1fms\n",
		ms(r.LatencyP50NS), ms(r.LatencyP95NS), ms(r.LatencyP99NS), ms(r.LatencyMaxNS))
	fmt.Printf("  backpressure %d rejections, %d client retries\n", r.Rejections, r.ClientRetries)
	fmt.Printf("  memory       gc pause share %.2f%%, ome rate %.2f%%\n", r.GCPauseShare*100, r.OMERate*100)
	fmt.Printf("  warm pool    %.0f%% warm hits; queue depth max %d\n", r.WarmHitRate*100, r.QueueMaxDepth)
	states := make([]string, 0, len(r.States))
	for s, n := range r.States {
		states = append(states, fmt.Sprintf("%s=%d", s, n))
	}
	sort.Strings(states)
	fmt.Printf("  states       %s\n", strings.Join(states, " "))
	fmt.Printf("  results      %s\n", r.ResultsDigest)
}
