package facade

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/obs"
)

// VetOption configures a Vet pipeline run (functional options, mirroring
// Run's Option pattern).
type VetOption func(*vetOptions)

type vetOptions struct {
	dataClasses []string
	strict      bool
	seed        string
	lifetimes   bool
}

// VetWithDataClasses names the data classes for the FACADE transform. When
// not given, Vet looks for a "// facadec: data=C1,C2" directive line in the
// sources.
func VetWithDataClasses(classes ...string) VetOption {
	return func(o *vetOptions) { o.dataClasses = classes }
}

// VetStrict disables data-set closure expansion (core.Options.NoAutoClose).
func VetStrict() VetOption {
	return func(o *vetOptions) { o.strict = true }
}

// VetWithSeedViolation injects a known violation into P' before linting it —
// one of analysis.SeedViolation's kinds ("use-before-def", "pool-clobber") —
// for exercising the linter against a clean program.
func VetWithSeedViolation(kind string) VetOption {
	return func(o *vetOptions) { o.seed = kind }
}

// VetLifetimes runs the lifetime-inference pass over program P and includes
// its per-allocation-site file:line classification report (facadec vet
// -lifetimes).
func VetLifetimes() VetOption {
	return func(o *vetOptions) { o.lifetimes = true }
}

// VetResult carries everything a vet run produced.
type VetResult struct {
	P  *ir.Program // compiled program (P)
	P2 *ir.Program // transformed program (P'), nil if verification of P failed

	// File optionally names the vetted source (set by callers vetting one
	// file at a time, e.g. facadec); it appears in the JSON report.
	File string

	// VerifyErrs lists IR verifier failures (compiler bugs), formatted.
	VerifyErrs []string
	// Diagnostics lists lint findings as "file:line:col: [check] msg".
	Diagnostics []string

	VerifiedFuncs int
	LintFindings  int
	DCERemoved    int
	// Lifetimes lists the per-site lifetime classifications of P as
	// "file:line:col: [lifetime] ..." lines (VetLifetimes), and
	// LifetimeCounts tallies them per class name.
	Lifetimes      []string
	LifetimeCounts map[string]int
	// Bounds are P2's §3.3 pool bounds; TightBounds what
	// analysis.TightenBounds would shrink them to (computed on a copy —
	// P2 itself keeps signature-sized pools).
	Bounds, TightBounds map[string]int
}

// Clean reports whether vet found nothing: the program verifies in both
// forms and the linter is silent.
func (r *VetResult) Clean() bool { return len(r.VerifyErrs) == 0 && len(r.Diagnostics) == 0 }

// Report renders a short human-readable summary.
func (r *VetResult) Report() string {
	var sb strings.Builder
	for _, e := range r.VerifyErrs {
		fmt.Fprintf(&sb, "verify: %s\n", e)
	}
	for _, d := range r.Diagnostics {
		fmt.Fprintf(&sb, "%s\n", d)
	}
	for _, l := range r.Lifetimes {
		fmt.Fprintf(&sb, "%s\n", l)
	}
	fmt.Fprintf(&sb, "vet: %d function(s) verified, %d finding(s), %d instruction(s) removed by DCE\n",
		r.VerifiedFuncs, r.LintFindings, r.DCERemoved)
	if r.LifetimeCounts != nil {
		fmt.Fprintf(&sb, "vet: lifetimes: %d epoch-local, %d long-lived, %d unknown\n",
			r.LifetimeCounts["epoch-local"], r.LifetimeCounts["long-lived"], r.LifetimeCounts["unknown"])
	}
	if len(r.Bounds) > 0 {
		var names []string
		for n := range r.Bounds {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if t, ok := r.TightBounds[n]; ok && t < r.Bounds[n] {
				fmt.Fprintf(&sb, "vet: pool %s: bound %d tightens to %d over live ranges\n", n, r.Bounds[n], t)
			}
		}
	}
	return sb.String()
}

// Vet compiles the given sources, verifies and lints program P, applies
// the FACADE transform (with DCE), and verifies and lints P'. It is the
// engine behind `facadec vet` and the golden-diagnostics tests. A non-nil
// error means the pipeline itself could not run (parse/type/transform
// failure); verifier and lint results are reported in the VetResult.
func Vet(sources map[string]string, vopts ...VetOption) (*VetResult, error) {
	var opts vetOptions
	for _, opt := range vopts {
		opt(&opts)
	}
	p, err := Compile(sources)
	if err != nil {
		return nil, err
	}
	r := &VetResult{P: p}
	if err := analysis.VerifyProgram(p); err != nil {
		r.VerifyErrs = append(r.VerifyErrs, "P: "+err.Error())
		return r, nil
	}
	r.VerifiedFuncs += len(p.FuncList)
	r.addFindings(analysis.LintProgram(p))
	if opts.lifetimes {
		r.LifetimeCounts = make(map[string]int)
		for _, sc := range analysis.LifetimeReport(p) {
			r.Lifetimes = append(r.Lifetimes, sc.String())
			r.LifetimeCounts[sc.Class.String()]++
		}
	}

	data := opts.dataClasses
	if len(data) == 0 {
		for _, src := range sources {
			if d := DataClassesDirective(src); len(d) > 0 {
				data = append(data, d...)
			}
		}
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("no data classes: pass -data or add a \"// facadec: data=C1,C2\" directive")
	}
	p2, err := Transform(p, TransformOptions{
		DataClasses: data, NoAutoClose: opts.strict,
	})
	if err != nil {
		return nil, err
	}
	r.P2 = p2
	r.DCERemoved = p2.DCERemoved
	r.Bounds = p2.Bounds
	if err := analysis.VerifyProgram(p2); err != nil {
		r.VerifyErrs = append(r.VerifyErrs, "P': "+err.Error())
		return r, nil
	}
	r.VerifiedFuncs += len(p2.FuncList)
	if opts.seed != "" {
		if err := analysis.SeedViolation(p2, opts.seed); err != nil {
			return nil, err
		}
	}
	r.addFindings(analysis.LintProgram(p2))

	// Preview liveness-tightened bounds on a copy of the bounds map.
	tight := &ir.Program{
		H: p2.H, Funcs: p2.Funcs, FuncList: p2.FuncList,
		Transformed: true, Bounds: make(map[string]int, len(p2.Bounds)),
	}
	for k, v := range p2.Bounds {
		tight.Bounds[k] = v
	}
	r.TightBounds = analysis.TightenBounds(tight)
	return r, nil
}

// VetJSONSchema identifies the machine-readable vet report format emitted
// by VetResult.JSON (facadec vet -json).
const VetJSONSchema = "facade.vet/v1"

// JSON renders the result as the facade.vet/v1 machine-readable report.
// The encoding is deterministic (obs.EncodeDeterministic: sorted keys,
// stable number formatting, trailing newline), so the bytes are stable
// across runs and Go versions — CI and the golden tests diff them
// directly.
func (r *VetResult) JSON(w io.Writer) error {
	report := map[string]any{
		"schema":         VetJSONSchema,
		"clean":          r.Clean(),
		"file":           r.File,
		"verify_errors":  emptyNotNil(r.VerifyErrs),
		"diagnostics":    emptyNotNil(r.Diagnostics),
		"verified_funcs": r.VerifiedFuncs,
		"lint_findings":  r.LintFindings,
		"dce_removed":    r.DCERemoved,
	}
	if r.Bounds != nil {
		report["bounds"] = r.Bounds
	}
	if len(r.TightBounds) > 0 {
		report["tight_bounds"] = r.TightBounds
	}
	if r.LifetimeCounts != nil {
		report["lifetimes"] = emptyNotNil(r.Lifetimes)
		report["lifetime_counts"] = r.LifetimeCounts
	}
	return obs.EncodeDeterministic(w, report)
}

// emptyNotNil keeps empty lists as [] (not null) in the JSON report.
func emptyNotNil(s []string) []string {
	if s == nil {
		return []string{}
	}
	return s
}

func (r *VetResult) addFindings(fs []analysis.Finding) {
	r.LintFindings += len(fs)
	for _, f := range fs {
		r.Diagnostics = append(r.Diagnostics, f.String())
	}
}

// DataClassesDirective extracts the data-class list from a
// "// facadec: data=C1,C2" directive line in an FJ source file, returning
// nil when no directive is present.
func DataClassesDirective(src string) []string {
	for _, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "//") {
			continue
		}
		rest := strings.TrimSpace(strings.TrimPrefix(line, "//"))
		if !strings.HasPrefix(rest, "facadec:") {
			continue
		}
		rest = strings.TrimSpace(strings.TrimPrefix(rest, "facadec:"))
		if !strings.HasPrefix(rest, "data=") {
			continue
		}
		var out []string
		for _, c := range strings.Split(strings.TrimPrefix(rest, "data="), ",") {
			if c = strings.TrimSpace(c); c != "" {
				out = append(out, c)
			}
		}
		return out
	}
	return nil
}

// VerifyProgram re-exports the analysis verifier for callers that hold an
// ir.Program (engines, tests) without importing internal/analysis.
func VerifyProgram(p *ir.Program) error { return analysis.VerifyProgram(p) }

// LintProgram re-exports the facade-safety linter, returning formatted
// diagnostics.
func LintProgram(p *ir.Program) []string {
	var out []string
	for _, f := range analysis.LintProgram(p) {
		out = append(out, f.String())
	}
	return out
}
