package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/obs"
)

// resultSchema versions the -out result file.
const resultSchema = "facade.benchmark/v1"

// spanSchema versions the -spans file.
const spanSchema = "facade.benchmark.spans/v1"

// value is one reported number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// envInfo records where and how a result file was produced, so a run on a
// different runner or with other settings is recognisable as such.
type envInfo struct {
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      string  `json:"trace"`
	Quick      bool    `json:"quick"`
	WorkdirFS  string  `json:"workdir_fs"`
}

// workloadRecord is one workload's section of the result file.
type workloadRecord struct {
	Name        string             `json:"name"`
	Units       int                `json:"units"`
	TracedUnits int                `json:"traced_units"`
	SetupReps   int                `json:"setup_reps"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Correct     bool               `json:"correct"`
	Failures    []string           `json:"failures,omitempty"`
	EndToEnd    map[string]value   `json:"end_to_end,omitempty"`
	PerLayer    map[string]value   `json:"per_layer,omitempty"`
	Shares      map[string]float64 `json:"layer_shares,omitempty"`
}

// resultFile is the -out document. Claim is always null: this benchmark
// fixes the names later claims use and claims no gain itself.
type resultFile struct {
	Schema    string           `json:"schema"`
	Claim     *string          `json:"claim"`
	Env       envInfo          `json:"env"`
	Workloads []workloadRecord `json:"workloads"`
}

// maxFailuresKept bounds the failure messages a record carries.
const maxFailuresKept = 20

func withUnits(vals map[string]float64) map[string]value {
	if vals == nil {
		return nil
	}
	out := make(map[string]value, len(vals))
	for name, v := range vals {
		m, ok := findMetric(endToEnd, name)
		if !ok {
			m, _ = findMetric(perLayer, name)
		}
		out[name] = value{Value: v, Unit: m.unit}
	}
	return out
}

func record(r *workloadResult) workloadRecord {
	rec := workloadRecord{
		Name: r.name, Units: r.units, TracedUnits: r.tracedUnits, SetupReps: r.setupReps,
		Attempted: r.attempted, Failed: r.failed, Correct: r.failed == 0,
		Failures: r.failures,
		EndToEnd: withUnits(r.endToEnd),
		PerLayer: withUnits(r.perLayer),
		Shares:   r.shares,
	}
	if len(rec.Failures) > maxFailuresKept {
		rec.Failures = rec.Failures[:maxFailuresKept]
	}
	return rec
}

// writeDeterministic writes v to path with stable key order and float
// formatting, so two result files are diffable line by line.
func writeDeterministic(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.EncodeDeterministic(f, v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rf.Schema, resultSchema)
	}
	return &rf, nil
}

// contractLine is the last line of standard output: the object the
// benchmark driver reads. With one workload the metric names are bare;
// with several each is prefixed "workload/".
type contractLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func contract(recs []workloadRecord, trace string) contractLine {
	line := contractLine{Correct: true, Metrics: make(map[string]value)}
	for _, rec := range recs {
		line.Attempted += rec.Attempted
		line.Failed += rec.Failed
		line.Correct = line.Correct && rec.Correct
		prefix := ""
		if len(recs) > 1 {
			prefix = rec.Name + "/"
		}
		for name, v := range rec.EndToEnd {
			// Only the metrics BENCHMARK.json lists under end_to_end, and
			// not in a "-trace 1" run, whose line is the per_layer list
			// alone: the others reach the driver with that list.
			if m, _ := findMetric(endToEnd, name); m.uniform() && trace != "1" {
				line.Metrics[prefix+name] = v
			}
		}
		for name, v := range rec.PerLayer {
			line.Metrics[prefix+name] = v
		}
	}
	return line
}

// compare prints, per workload and end-to-end metric, the two values, the
// relative difference (positive = b is worse) and the bound, and marks
// exact counts that differ at equal seed. It returns how many entries are
// outside their bound or differ when they must not.
func compare(w io.Writer, a, b *resultFile) int {
	bad := 0
	byName := make(map[string]workloadRecord, len(b.Workloads))
	for _, rec := range b.Workloads {
		byName[rec.Name] = rec
	}
	if a.Env.Nproc != b.Env.Nproc || a.Env.GoVersion != b.Env.GoVersion || a.Env.WorkdirFS != b.Env.WorkdirFS {
		fmt.Fprintf(w, "note: the files come from different environments (%+v vs %+v)\n", a.Env, b.Env)
	}
	fmt.Fprintf(w, "%-16s %-14s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "verdict")
	for _, ra := range a.Workloads {
		rb, ok := byName[ra.Name]
		if !ok {
			continue
		}
		for _, m := range endToEnd {
			va, oka := ra.EndToEnd[m.name]
			vb, okb := rb.EndToEnd[m.name]
			if !oka || !okb || (!m.zeroOK && (va.Value == 0 || vb.Value == 0)) {
				continue // not reported on this workload, or a refused percentile
			}
			worse := 0.0
			switch {
			case va.Value == vb.Value:
			case va.Value == 0:
				worse = 1 // anything above an expected 0 is a regression
			case m.higher:
				worse = (va.Value - vb.Value) / va.Value
			default:
				worse = (vb.Value - va.Value) / va.Value
			}
			verdict, bound := "ok", fmt.Sprintf("%.0f%%", 100*m.bound)
			switch {
			case m.bound == 0 && !m.zeroOK:
				verdict, bound = "", "-" // reported for the reader, held to nothing
			case worse > m.bound:
				verdict = "WORSE"
				bad++
			case -worse > m.bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-16s %-14s %14.6g %14.6g %+8.1f%% %7s  %s\n",
				ra.Name, m.name, va.Value, vb.Value, 100*worse, bound, verdict)
		}
		if a.Env.Seed != b.Env.Seed || a.Env.Quick != b.Env.Quick {
			continue
		}
		names := make([]string, 0, len(ra.PerLayer))
		for name := range ra.PerLayer {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m, _ := findMetric(perLayer, name)
			vb, okb := rb.PerLayer[name]
			if m.agg == aggExact && okb && ra.PerLayer[name].Value != vb.Value {
				fmt.Fprintf(w, "%-16s %s: exact count differs at equal seed: %v vs %v  ERROR\n",
					ra.Name, name, ra.PerLayer[name].Value, vb.Value)
				bad++
			}
		}
	}
	return bad
}
