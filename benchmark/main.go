// Command benchmark is the one benchmark of the whole stack: seven seeded
// workloads, end-to-end metrics from an untraced pass, per-layer metrics
// and spans from a traced pass, every output checked against a reference.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
)

var workloads = []workload{
	graphchiWorkload(wGraphchiP,
		"GraphChi PR+CC on P under a tight heap: the managed heap, the GC and the interpreter do the work, offheap none",
		false, false),
	graphchiWorkload(wGraphchiP2,
		"same graph, shards and heap on P': page acquire/recycle and boundary crossings do the work, GC next to none",
		true, false),
	graphchiWorkload(wGraphchiTiered,
		"graphchi_p2 under a 64/32-page DRAM watermark: pinning, eviction and promotion instead of the call-free fast path",
		true, true),
	hyracksWorkload(wHyracks,
		"Hyracks WordCount+ExternalSort on P' at the size where P dies of OME: cluster mailboxes, dfs and byte-array boundary traffic over many small VMs"),
	serveWorkload(wServeWarm,
		"daemon, journal on, 2 closed-loop clients, repeated programs: admission, journal commit, warm-pool reset and delivery do the work, compile is cached",
		false),
	serveWorkload(wServeCold,
		"same daemon, clients and plan, every job's source file renamed: the program cache and warm pool miss, so compile and vm.New are on the request path",
		true),
	compileWorkload(wCompile,
		"parse to lifetime pass over the three engine data paths and four daemon scenarios, fresh each unit: only lang/lower/core/analysis work, no VM is built"),
}

// errIncorrect makes the command exit non-zero after it has printed
// everything: a failed unit or reference check is a result, not a crash.
var errIncorrect = errors.New("an output was wrong or a unit failed")

func main() {
	if err := run(os.Args[1:]); err != nil {
		if !errors.Is(err, errIncorrect) {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
		}
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	names := fs.String("workload", "all", "comma-separated workloads to run, or all")
	fs.StringVar(names, "workloads", "all", "alias of -workload")
	seed := fs.Uint64("seed", defaultSeed, "seed of the generated inputs (datagen and the job plan)")
	seconds := fs.Float64("seconds", 10, "timed region per workload")
	trace := fs.String("trace", "both", "0: untraced pass, end-to-end metrics; 1: traced pass after a short untraced one, per-layer metrics; both: untraced for -seconds, then traced for a third of it")
	out := fs.String("out", "", "write the "+resultSchema+" result file here")
	spans := fs.String("spans", "", "write the traced pass's spans here")
	cmp := fs.Bool("compare", false, "compare two result files given as arguments instead of running")
	quick := fs.Bool("quick", false, "tiny fixed passes (2 steps, 1 set-up): a smoke test, not a measurement")
	workdir := fs.String("workdir", ".bench_work", "directory for journals, port files and spill files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cmp {
		return compareFiles(fs.Args())
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	o := options{seed: *seed, quick: *quick}
	switch *trace {
	case "0":
		o.untraced = *seconds
	case "1":
		o.untraced, o.traced = *seconds/3, *seconds*2/3
	case "both":
		o.untraced, o.traced = *seconds, *seconds/3
	default:
		return fmt.Errorf("-trace %q: want 0, 1 or both", *trace)
	}
	var selected []workload
	wanted := strings.Split(*names, ",")
	for _, w := range workloads {
		if *names == "all" || slices.Contains(wanted, w.name) {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || (*names != "all" && len(selected) != len(wanted)) {
		return fmt.Errorf("-workload %q: the workloads are %s", *names, strings.Join(allWorkloadNames, ", "))
	}
	dir, err := filepath.Abs(*workdir)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if o.workdir, err = os.MkdirTemp(dir, "run-"); err != nil {
		return err
	}
	defer os.RemoveAll(o.workdir)
	rf := resultFile{Schema: resultSchema, Env: envInfo{
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Seed: o.seed, Seconds: *seconds, Trace: *trace, Quick: o.quick, WorkdirFS: fsName(o.workdir),
	}}
	fmt.Printf("benchmark: seed %d, nproc %d, GOMAXPROCS %d, %s, work directory %s (%s)\n",
		o.seed, rf.Env.Nproc, rf.Env.GOMAXPROCS, rf.Env.GoVersion, o.workdir, rf.Env.WorkdirFS)

	type spanSet struct {
		Name  string `json:"name"`
		Spans []span `json:"spans"`
	}
	var spanSets []spanSet
	for _, w := range selected {
		r, err := runWorkload(w, o)
		if err != nil {
			return err
		}
		printWorkload(r)
		rf.Workloads = append(rf.Workloads, record(r))
		spanSets = append(spanSets, spanSet{w.name, r.spans})
	}
	if *out != "" {
		if err := writeDeterministic(*out, rf); err != nil {
			return err
		}
	}
	if *spans != "" {
		data, err := json.Marshal(map[string]any{"schema": spanSchema, "workloads": spanSets})
		if err == nil {
			err = os.WriteFile(*spans, data, 0o644)
		}
		if err != nil {
			return err
		}
	}
	line := contract(rf.Workloads, *trace)
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Printf("\n%s\n", data)
	if !line.Correct {
		return errIncorrect
	}
	return nil
}

func compareFiles(paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare wants two result files, got %d", len(paths))
	}
	a, err := readResult(paths[0])
	if err != nil {
		return err
	}
	b, err := readResult(paths[1])
	if err != nil {
		return err
	}
	if bad := compare(os.Stdout, a, b); bad > 0 {
		return fmt.Errorf("%d entries outside their bound", bad)
	}
	return nil
}

func printWorkload(r *workloadResult) {
	fmt.Printf("\n== %s: %d units untraced, %d traced, %d set-ups; %d attempted, %d failed\n",
		r.name, r.units, r.tracedUnits, r.setupReps, r.attempted, r.failed)
	for i, f := range r.failures {
		if i == maxFailuresKept {
			fmt.Printf("  ... and %d more\n", len(r.failures)-i)
			break
		}
		fmt.Printf("  FAIL %s\n", f)
	}
	if r.endToEnd != nil {
		fmt.Println("end-to-end (untraced pass):")
		for _, m := range endToEnd {
			if v, ok := r.endToEnd[m.name]; ok {
				fmt.Printf("  %-32s %14.6g %s\n", m.name, v, m.unit)
			}
		}
	}
	if r.perLayer == nil {
		return
	}
	fmt.Println("per-layer (traced pass):")
	for _, m := range perLayer {
		fmt.Printf("  %-32s %14.6g %s\n", m.name, r.perLayer[m.name], m.unit)
	}
	fmt.Println("share of unit time by span (self time):")
	names := make([]string, 0, len(r.shares))
	for n := range r.shares {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if r.shares[names[i]] != r.shares[names[j]] {
			return r.shares[names[i]] > r.shares[names[j]]
		}
		return names[i] < names[j]
	})
	for _, n := range names {
		fmt.Printf("  %-32s %13.1f%%\n", n, 100*r.shares[n])
	}
	fmt.Printf("  %-32s %13.1f%%\n", "(unaccounted)", 100*r.perLayer["trace.unaccounted_share"])
}
