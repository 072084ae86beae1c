package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/gps"
	"repro/internal/graphchi"
	"repro/internal/hyracks"
	"repro/internal/obs"
)

// reporter accumulates machine-readable run reports for a subcommand and
// writes them as one JSON document when the command finishes. Commands
// register it with the -json flag; an empty path disables it.
type reporter struct {
	path    string
	reports []obs.RunReport
}

// reportFlag registers -json on fs and returns the collector.
func reportFlag(fs *flag.FlagSet) *reporter {
	r := &reporter{}
	fs.StringVar(&r.path, "json", "", "write a machine-readable run report (JSON) to this file")
	return r
}

func (r *reporter) enabled() bool { return r.path != "" }

func (r *reporter) add(rep obs.RunReport) {
	if r.enabled() {
		r.reports = append(r.reports, rep)
	}
}

// flush writes the accumulated reports; a no-op when -json was not given.
func (r *reporter) flush() error {
	if !r.enabled() {
		return nil
	}
	f, err := os.Create(r.path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := obs.EncodeReports(f, r.reports); err != nil {
		return fmt.Errorf("writing %s: %w", r.path, err)
	}
	fmt.Printf("wrote %d run report(s) to %s\n", len(r.reports), r.path)
	return nil
}

// gpsReport converts one GPS run into a RunReport, including the run's
// fault-recovery and network counters.
func gpsReport(name, program string, cfg gps.Config, edges int, r *gps.Result) obs.RunReport {
	rep := obs.NewRunReport(name, program)
	rep.Config = map[string]any{
		"app":        cfg.App.String(),
		"nodes":      cfg.Nodes,
		"heap_bytes": cfg.HeapPerNode,
		"supersteps": cfg.Supersteps,
		"edges":      edges,
	}
	if cfg.Faults != nil {
		rep.Config["faults"] = cfg.Faults
	}
	rep.WallNanos = r.ET.Nanoseconds()
	rep.Metrics = map[string]float64{"et_s": r.ET.Seconds()}
	addMemoryMetrics(rep.Metrics, r.Memory)
	addRecoveryMetrics(rep.Metrics, r.Obs, obs.CtrCheckpoints, obs.CtrCheckpointBytes, obs.CtrCheckpointsDropped,
		obs.CtrRestores, obs.CtrNodeRestarts, obs.CtrCrashes, obs.CtrOOMRecoveries)
	addNetMetrics(rep.Metrics, r.Net)
	if len(r.NodeObs) > 0 {
		rep.Obs = r.NodeObs[0]
	}
	return rep
}

// hyracksReport converts one Hyracks job run into a RunReport, including
// the run's fault-recovery and network counters.
func hyracksReport(name, program string, sizeGB int, r *hyracks.Result) obs.RunReport {
	rep := obs.NewRunReport(name, program)
	rep.Config = map[string]any{
		"job":     r.Job,
		"size_gb": sizeGB,
	}
	rep.WallNanos = r.ET.Nanoseconds()
	ome := 0.0
	if r.OME {
		ome = 1
	}
	rep.Metrics = map[string]float64{
		"et_s":         r.ET.Seconds(),
		"ome":          ome,
		"shuffled_mb":  r.ShuffledMB,
		"output_bytes": float64(r.OutputBytes),
	}
	addMemoryMetrics(rep.Metrics, r.Memory)
	addRecoveryMetrics(rep.Metrics, r.Obs, obs.CtrCrashes, obs.CtrNodeRestarts, obs.CtrTaskRetries,
		obs.CtrTasksDegraded, obs.CtrOOMRecoveries)
	addNetMetrics(rep.Metrics, r.Net)
	if len(r.NodeObs) > 0 {
		rep.Obs = r.NodeObs[0]
	}
	return rep
}

// addMemoryMetrics copies a run's memory book into a metrics map.
func addMemoryMetrics(m map[string]float64, mem obs.Memory) {
	m["gt_s"] = mem.GT.Seconds()
	m["pm_bytes"] = float64(mem.PM)
	m["heap_peak"] = float64(mem.HeapPeak)
	m["native_peak"] = float64(mem.NativePeak)
	m["minor_gcs"] = float64(mem.MinorGCs)
	m["full_gcs"] = float64(mem.FullGCs)
}

// addRecoveryMetrics copies the named recovery.* counters of a run's
// snapshot into a metrics map, each under its name without the
// "recovery." prefix.
func addRecoveryMetrics(m map[string]float64, s obs.Snapshot, names ...string) {
	for _, name := range names {
		m[strings.TrimPrefix(name, "recovery.")] = float64(s.Counters[name])
	}
}

// recoveryBook sums a command's recovery.* counters over its runs, for
// the line it prints after its table when faults were injected.
type recoveryBook map[string]int64

func (b recoveryBook) add(snaps ...obs.Snapshot) {
	for _, s := range snaps {
		for name, v := range s.Counters {
			if strings.HasPrefix(name, "recovery.") {
				b[strings.TrimPrefix(name, "recovery.")] += v
			}
		}
	}
}

func (b recoveryBook) print() {
	parts := []string{}
	for name, v := range b {
		parts = append(parts, fmt.Sprintf("%s %d", name, v))
	}
	if len(parts) == 0 {
		parts = append(parts, "no recovery work")
	}
	sort.Strings(parts)
	fmt.Printf("fault injection: %s\n", strings.Join(parts, ", "))
}

// addNetMetrics folds the cluster network counters into a metrics map.
func addNetMetrics(m map[string]float64, n cluster.NetStats) {
	m["net_frames_sent"] = float64(n.FramesSent)
	m["net_frames_delivered"] = float64(n.FramesDelivered)
	m["net_drops"] = float64(n.Drops)
	m["net_retries"] = float64(n.Retries)
	m["net_dups"] = float64(n.Dups)
	m["net_deduped"] = float64(n.Deduped)
	m["net_reorders"] = float64(n.Reorders)
	m["net_delays"] = float64(n.Delays)
	m["net_black_holed"] = float64(n.BlackHoled)
}

// graphchiReport converts one GraphChi run's metrics into a RunReport.
func graphchiReport(name, program string, cfg graphchi.Config, heapBytes int64, m *graphchi.Metrics) obs.RunReport {
	rep := obs.NewRunReport(name, program)
	rep.Config = map[string]any{
		"app":           cfg.App.String(),
		"workers":       cfg.Workers,
		"iterations":    cfg.Iterations,
		"heap_bytes":    heapBytes,
		"memory_budget": cfg.MemoryBudget,
	}
	if cfg.Faults != nil {
		rep.Config["faults"] = cfg.Faults
	}
	rep.WallNanos = m.ET.Nanoseconds()
	rep.Metrics = map[string]float64{
		"et_s":           m.ET.Seconds(),
		"ut_s":           m.UT.Seconds(),
		"lt_s":           m.LT.Seconds(),
		"sub_iters":      float64(m.SubIters),
		"data_objects":   float64(m.DataObjects),
		"pages":          float64(m.Pages),
		"pages_live_hw":  float64(m.PagesLiveHW),
		"records":        float64(m.Records),
		"edges":          float64(m.Edges),
		"throughput_eps": m.Throughput(),
	}
	addMemoryMetrics(rep.Metrics, m.Memory)
	addRecoveryMetrics(rep.Metrics, m.Obs, obs.CtrIntervalRetries, obs.CtrCrashes, obs.CtrWorkerRestarts,
		obs.CtrOOMRecoveries, obs.CtrBudgetHalvings)
	rep.ClassAllocs = m.ClassAllocs
	rep.Obs = m.Obs
	return rep
}
