package load

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"

	"repro/internal/obs"
)

// ReportSchema versions the load-report format.
const ReportSchema = "facade.load/v1"

// Report is one load run's full record: the plan echo, the throughput and
// latency headline, backpressure and memory health, the queue-depth
// trace, and the deterministic per-job results digest.
type Report struct {
	Schema string `json:"schema"`

	Seed    int64   `json:"seed"`
	Jobs    int     `json:"jobs"`
	Clients int     `json:"clients"`
	Tenants int     `json:"tenants"`
	Rate    float64 `json:"rate,omitempty"` // 0 = closed loop
	Mode    string  `json:"mode"`           // "closed" or "open"

	WallNS     int64   `json:"wall_ns"`
	JobsPerSec float64 `json:"jobs_per_sec"`

	LatencyP50NS int64 `json:"latency_p50_ns"`
	LatencyP95NS int64 `json:"latency_p95_ns"`
	LatencyP99NS int64 `json:"latency_p99_ns"`
	LatencyMinNS int64 `json:"latency_min_ns"`
	LatencyMaxNS int64 `json:"latency_max_ns"`
	LatencyMADNS int64 `json:"latency_mad_ns"`

	Rejections    int64   `json:"rejections"`     // 429/503 answers absorbed
	ClientRetries int64   `json:"client_retries"` // resubmits those caused
	WarmHitRate   float64 `json:"warm_hit_rate"`
	GCPauseShare  float64 `json:"gc_pause_share"` // Σ gc pause / Σ run time
	OMECount      int     `json:"ome_count"`
	OMERate       float64 `json:"ome_rate"`

	States map[string]int `json:"states"` // terminal state → count

	QueueMaxDepth int      `json:"queue_max_depth"` // max queued+running seen
	Samples       []Sample `json:"samples,omitempty"`

	// ResultsDigest is the sha256 over WriteResults' lines: the
	// deterministic fingerprint of every job's (plan, state, output).
	ResultsDigest string      `json:"results_digest"`
	Results       []JobResult `json:"results,omitempty"`
}

func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func buildReport(cfg Config, results []JobResult, samples []Sample, wallNS int64, rejected, retries int64) *Report {
	r := &Report{
		Schema:  ReportSchema,
		Seed:    cfg.Seed,
		Jobs:    len(results),
		Clients: cfg.Clients,
		Tenants: cfg.Tenants,
		Rate:    cfg.Rate,
		Mode:    "closed",
		WallNS:  wallNS,

		Rejections:    rejected,
		ClientRetries: retries,
		States:        map[string]int{},
		Samples:       samples,
		Results:       results,
	}
	if cfg.Rate > 0 {
		r.Mode = "open"
	}
	if wallNS > 0 {
		r.JobsPerSec = float64(len(results)) / (float64(wallNS) / 1e9)
	}

	lat := make([]int64, 0, len(results))
	var warm, gcNS, runNS int64
	for _, jr := range results {
		lat = append(lat, jr.LatencyNS)
		r.States[jr.State]++
		if jr.WarmHit {
			warm++
		}
		if jr.OME {
			r.OMECount++
		}
		gcNS += jr.gcNS
		runNS += jr.runNS
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if n := len(lat); n > 0 {
		r.LatencyMinNS = lat[0]
		r.LatencyMaxNS = lat[n-1]
		r.LatencyP50NS = percentile(lat, 0.50)
		r.LatencyP95NS = percentile(lat, 0.95)
		r.LatencyP99NS = percentile(lat, 0.99)
		dev := make([]int64, n)
		for i, v := range lat {
			d := v - r.LatencyP50NS
			if d < 0 {
				d = -d
			}
			dev[i] = d
		}
		sort.Slice(dev, func(i, j int) bool { return dev[i] < dev[j] })
		r.LatencyMADNS = percentile(dev, 0.50)
		r.WarmHitRate = float64(warm) / float64(n)
		r.OMERate = float64(r.OMECount) / float64(n)
	}
	if runNS > 0 {
		r.GCPauseShare = float64(gcNS) / float64(runNS)
	}
	for _, s := range samples {
		if d := s.Queued + s.Running; d > r.QueueMaxDepth {
			r.QueueMaxDepth = d
		}
	}
	r.ResultsDigest = digest(results)
	return r
}

func digest(results []JobResult) string {
	h := sha256.New()
	for _, jr := range results {
		writeResultLine(h, jr)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeResultLine(w io.Writer, jr JobResult) {
	// Deliberately excludes job IDs (assigned in arrival order, which
	// races) and error text (carries attempt counts and timing); state +
	// output hash is the deterministic contract.
	fmt.Fprintf(w, "%d|%s|%s|%d|%s|%s\n",
		jr.Index, jr.Scenario, jr.Tenant, jr.Seed, jr.State, jr.OutputSHA)
}

// WriteResults writes one line per job — the material ResultsDigest
// hashes. Two same-seed runs must produce byte-identical output here;
// TestRunDeterministicAcrossRuns compares them byte for byte.
func (r *Report) WriteResults(w io.Writer) error {
	for _, jr := range r.Results {
		if _, err := fmt.Fprintf(w, "%d|%s|%s|%d|%s|%s\n",
			jr.Index, jr.Scenario, jr.Tenant, jr.Seed, jr.State, jr.OutputSHA); err != nil {
			return err
		}
	}
	return nil
}

// Encode writes the report as deterministic JSON (sorted keys, stable
// float formatting); the measured values inside still vary run to run.
func (r *Report) Encode(w io.Writer) error {
	return obs.EncodeDeterministic(w, r)
}
