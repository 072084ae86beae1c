package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"repro/facade"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/gps"
	"repro/internal/graphchi"
	"repro/internal/hyracks"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/load"
	"repro/internal/lower"
	"repro/internal/stdlib"
)

// compileInput is one program the compile workload builds from source.
type compileInput struct {
	name    string
	sources map[string]string
	data    []string // data classes handed to the FACADE transform
}

// compileInstance compiles the repo's whole FJ corpus — the three engine
// data paths and the four daemon scenarios — front to back, from source
// text every unit: no VM is built, and nothing is reused between units
// (the lifetime pass memoises on the program, so each unit needs fresh
// programs anyway).
type compileInstance struct {
	inputs   []compileInput
	irDigest string  // printed-IR digest of the set-up compile
	heldMB   float64 // Go heap one unit's compiled programs retain
	counts   map[string]float64
}

func compileWorkload(name, why string) workload {
	return workload{name: name, why: why, setup: func(o options) (instance, map[string]float64, error) {
		c := &compileInstance{inputs: []compileInput{
			{"graphchi", map[string]string{"graphchi.fj": graphchi.Source}, graphchi.DataClasses},
			{"hyracks", map[string]string{"hyracks.fj": hyracks.Source}, hyracks.DataClasses},
			{"gps", map[string]string{"gps.fj": gps.Source}, gps.DataClasses},
		}}
		for _, sc := range load.Scenarios() {
			var data []string
			for _, src := range sc.Sources {
				data = append(data, facade.DataClassesDirective(src)...)
			}
			c.inputs = append(c.inputs, compileInput{sc.Name, sc.Sources, data})
		}
		// The reference compile: its counts and printed IR are what every
		// unit must reproduce, and the heap its products retain is this
		// workload's peak_mb (it builds no VM to take a peak from).
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		progs, _, counts, err := c.compileAll(nil, -1, -1)
		if err != nil {
			return nil, nil, err
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		c.heldMB = float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (1 << 20)
		if c.heldMB <= 0 {
			return nil, nil, fmt.Errorf("compiled programs retain %.3f MB of Go heap: something else is allocating", c.heldMB)
		}
		c.counts = counts
		c.irDigest = irDigest(progs)
		runtime.KeepAlive(progs)
		return c, nil, nil
	}}
}

// irDigest hashes the printed IR of every function of every program.
func irDigest(progs []*ir.Program) string {
	h := sha256.New()
	for _, p := range progs {
		for _, f := range p.FuncList {
			fmt.Fprintln(h, f.String())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func instrs(p *ir.Program) float64 {
	n := 0
	for _, f := range p.FuncList {
		n += f.NumInstrs()
	}
	return float64(n)
}

// compileAll runs the pipeline over every input, timing each phase and
// recording one span per call. It returns P and P' of every input, the
// seconds spent per phase, and the work counts.
func (c *compileInstance) compileAll(tr *tracer, root, unit int) ([]*ir.Program, map[string]float64, map[string]float64, error) {
	phases := make(map[string]float64)
	counts := make(map[string]float64)
	var progs []*ir.Program
	var failure error
	// timed runs one pipeline phase under a span named after the call.
	timed := func(metric, call string, fn func() error) {
		if failure != nil {
			return
		}
		id := tr.begin(root, unit, call)
		start := time.Now()
		failure = fn()
		phases[metric] += time.Since(start).Seconds()
		tr.end(id)
	}
	for _, in := range c.inputs {
		for _, src := range in.sources {
			counts["lang.source_bytes"] += float64(len(src))
		}
		var files []*lang.File
		var h *lang.Hierarchy
		var p, p2 *ir.Program
		timed("lang.parse_s", "stdlib.ParseWith", func() (err error) {
			files, err = stdlib.ParseWith(in.sources)
			return err
		})
		timed("lang.check_s", "lang.BuildHierarchy", func() (err error) {
			h, err = lang.BuildHierarchy(files...)
			return err
		})
		timed("lang.check_s", "lang.Check", func() error { return lang.Check(h) })
		timed("lower.lower_s", "lower.Program", func() (err error) {
			p, err = lower.Program(h)
			return err
		})
		timed("core.transform_s", "core.Transform", func() (err error) {
			p2, err = core.Transform(p, core.Options{DataClasses: in.data})
			return err
		})
		timed("analysis.verify_s", "analysis.VerifyProgram", func() error { return analysis.VerifyProgram(p2) })
		timed("analysis.lint_s", "analysis.LintProgram", func() error {
			if findings := analysis.LintProgram(p2); len(findings) > 0 {
				return fmt.Errorf("%d lint finding(s), first: %s", len(findings), findings[0])
			}
			return nil
		})
		timed("analysis.lifetimes_s", "analysis.Lifetimes", func() error {
			if got := len(analysis.Lifetimes(p2)); got != p2.NumSites+1 {
				return fmt.Errorf("%d lifetime classes for %d sites", got, p2.NumSites)
			}
			return nil
		})
		if failure != nil {
			return nil, nil, nil, fmt.Errorf("compile %s: %w", in.name, failure)
		}
		counts["lower.ir_instrs"] += instrs(p)
		counts["core.ir_instrs_p2"] += instrs(p2)
		counts["analysis.dce_removed"] += float64(p2.DCERemoved)
		progs = append(progs, p, p2)
	}
	return progs, phases, counts, nil
}

// compileUnitsPerStep units make one step, so the probes that bracket a
// step cost a tenth of it, not a third.
const compileUnitsPerStep = 4

func (c *compileInstance) step(tr *tracer, unit int) (*stepResult, error) {
	res := &stepResult{peakMB: c.heldMB}
	if tr != nil {
		res.obs = make(map[string][]float64)
	}
	for u := unit; u < unit+compileUnitsPerStep; u++ {
		root := tr.begin(-1, u, unitSpan)
		start := time.Now()
		_, phases, counts, err := c.compileAll(tr, root, u)
		wall := time.Since(start).Seconds()
		tr.end(root)
		if err != nil {
			return nil, err
		}
		res.wall += wall
		res.durs = append(res.durs, wall)
		res.ends = append(res.ends, res.wall)
		for name, n := range counts {
			if n != c.counts[name] {
				res.fails = append(res.fails, fmt.Sprintf("compile unit %d: %s is %v, set-up compile gave %v", u, name, n, c.counts[name]))
			}
			if tr != nil {
				res.obs[name] = append(res.obs[name], n)
			}
		}
		if tr != nil {
			for name, v := range phases {
				res.obs[name] = append(res.obs[name], v)
			}
		}
	}
	return res, nil
}

// finish compiles once more and holds the printed IR to the set-up
// compile's: the compiler is deterministic down to the instruction text.
func (c *compileInstance) finish(*tracer) ([]string, map[string][]float64) {
	progs, _, _, err := c.compileAll(nil, -1, -1)
	if err != nil {
		return []string{err.Error()}, nil
	}
	if got := irDigest(progs); got != c.irDigest {
		return []string{fmt.Sprintf("compile: printed IR %s, set-up compile gave %s", got, c.irDigest)}, nil
	}
	return nil, nil
}

func (c *compileInstance) close() map[string]float64 { return nil }
