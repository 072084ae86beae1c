package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"regexp"
	"slices"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables")

const manifestPath = "../BENCHMARK.json"

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// manifest mirrors BENCHMARK.json, the file the benchmark driver reads.
// It is generated from the tables in metrics.go and main.go
// (go test -run TestManifest -update) and checked against them by
// TestManifest, so the names live in one place.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// runSeconds is how long the driver lets one run measure.
const runSeconds = 12

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{w.name, w.why})
	}
	// An end-to-end metric the contract cannot take as such — not defined
	// on every workload, or expected to read 0 — is listed with the
	// per-layer metrics, which carry no bound there.
	for _, e := range endToEnd {
		entry := manifestMetric{Name: e.name, Unit: e.unit, Better: e.better()}
		if e.uniform() {
			bound := e.bound
			entry.Bound = &bound
			m.EndToEnd = append(m.EndToEnd, entry)
		} else {
			m.PerLayer = append(m.PerLayer, entry)
		}
	}
	for _, p := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: p.name, Unit: p.unit, Better: p.better()})
	}
	return m
}

// TestManifest holds BENCHMARK.json to the tables and both to the
// driver's contract.
func TestManifest(t *testing.T) {
	want := buildManifest()
	if *update {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(want); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(manifestPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, the contract allows 64 KiB", len(data))
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var got manifest
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables; run go test -run TestManifest -update")
	}

	seen := make(map[string]bool)
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %v", kind, n, nameRE)
		}
		if seen[kind+"/"+n] {
			t.Errorf("%s name %q is used twice", kind, n)
		}
		seen[kind+"/"+n] = true
	}
	if n := len(got.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, the contract allows 2 to 8", n)
	}
	for _, w := range got.Workloads {
		name("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(got.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, the contract allows 1 to 16", n)
	}
	if n := len(got.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 1 to 128", n)
	}
	var setup *manifestMetric
	for i, m := range got.EndToEnd {
		name("metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v, want in (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == mSetup {
			setup = &got.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("end_to_end must carry setup_s in s, lower is better; have %+v", setup)
	} else {
		for _, m := range got.EndToEnd {
			if *m.Bound > *setup.Bound {
				t.Errorf("%s has a larger bound than setup_s", m.Name)
			}
		}
	}
	for _, m := range got.PerLayer {
		name("metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Bound != nil {
			t.Errorf("per-layer metric %s carries a bound", m.Name)
		}
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("run_seconds %d", got.RunSeconds)
	}
	// 4 + 22 runs per workload, with set-up and two builds, in 3420 s.
	if runs := 4 + 22*len(got.Workloads); float64(runs)*(float64(got.RunSeconds)+8) > 3420-120 {
		t.Errorf("%d runs of %d s (+8 s set-up and checks each) do not fit the driver's 3420 s", runs, got.RunSeconds)
	}
}

// TestInteractionMap checks the layer -> end-to-end map: every per-layer
// metric says which end-to-end metric it should move, on which workload,
// and both exist.
func TestInteractionMap(t *testing.T) {
	for _, p := range perLayer {
		if len(p.moves) == 0 || len(p.on) == 0 {
			t.Errorf("%s does not say what it should move, or where", p.name)
		}
		for _, e := range p.moves {
			if _, ok := findMetric(endToEnd, e); !ok {
				t.Errorf("%s moves %q, which is no end-to-end metric", p.name, e)
			}
		}
		for _, w := range p.on {
			if !slices.Contains(allWorkloadNames, w) {
				t.Errorf("%s names workload %q, which does not exist", p.name, w)
			}
		}
	}
	for _, e := range endToEnd {
		for _, w := range e.only {
			if !slices.Contains(allWorkloadNames, w) {
				t.Errorf("%s is restricted to workload %q, which does not exist", e.name, w)
			}
		}
	}
	if len(workloads) != len(allWorkloadNames) {
		t.Fatalf("%d workloads registered, %d named", len(workloads), len(allWorkloadNames))
	}
	for i, w := range workloads {
		if w.name != allWorkloadNames[i] {
			t.Errorf("workload %d is %q, named %q", i, w.name, allWorkloadNames[i])
		}
	}
}
