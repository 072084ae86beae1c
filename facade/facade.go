// Package facade is the public API of the FACADE reproduction: compile FJ
// data-path code to IR, apply the FACADE transform, and run either version
// on the managed VM.
//
// Typical use:
//
//	p, p2, err := facade.Build(map[string]string{"app.fj": src},
//	    []string{"Vertex", "Edge"})
//	res, err := facade.Run(p2, facade.WithHeapSize(64<<20))
//	fmt.Print(res.Output())
//	stats := res.Stats() // GC pauses, page counters, per-class allocs
//
// Run is RunContext with context.Background(); RunContext supports real
// cancellation — a canceled context unwinds the interpreter at the next
// safepoint and surfaces as a *CanceledError.
//
// Result.Stats returns RunStats, the run's registry snapshot with typed
// views of it, so reporting code needs no internal packages.
//
// Framework integrations (GraphChi, Hyracks, GPS in internal/...) create a
// VM directly with vm.New and drive the data path through vm.Thread's
// boundary helpers. Long-lived callers (the repro serve daemon,
// internal/server) reuse a VM across runs with WithReusedVM, which keeps
// the heap arena, dispatch tables, and recycled page pool warm.
package facade

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/lower"
	"repro/internal/obs"
	"repro/internal/offheap"
	"repro/internal/stdlib"
	"repro/internal/vm"
)

// Compile parses the given FJ sources together with the standard library,
// type-checks them, and lowers them to IR (program P).
func Compile(sources map[string]string) (*ir.Program, error) {
	files, err := stdlib.ParseWith(sources)
	if err != nil {
		return nil, err
	}
	h, err := lang.BuildHierarchy(files...)
	if err != nil {
		return nil, err
	}
	if err := lang.Check(h); err != nil {
		return nil, err
	}
	return lower.Program(h)
}

// TransformOptions configures the FACADE transform.
type TransformOptions = core.Options

// Transform applies the FACADE transform, producing program P'.
func Transform(p *ir.Program, opts TransformOptions) (*ir.Program, error) {
	return core.Transform(p, opts)
}

// Build is the one door from source to runnable programs: it compiles the
// sources to P, runs the closed-world inliner over P (analysis.Inline),
// and, when data classes are given, applies the FACADE transform to the
// inlined P. p2 is nil when dataClasses is empty. Because the inliner runs
// before the transform, P and P' carry the identical optimisation.
//
// Compile and Transform remain available separately and never inline; vet
// uses them so its diagnostics describe the program as written.
func Build(sources map[string]string, dataClasses []string) (p, p2 *ir.Program, err error) {
	return BuildWith(sources, TransformOptions{DataClasses: dataClasses})
}

// BuildWith is Build with full transform options (facadec -strict).
func BuildWith(sources map[string]string, opts TransformOptions) (p, p2 *ir.Program, err error) {
	if p, err = Compile(sources); err != nil {
		return nil, nil, err
	}
	transform := len(opts.DataClasses) > 0
	var data map[string]bool // nil: no boundary, everything is control
	if transform {
		if data, err = core.DataClosure(p, opts); err != nil {
			return nil, nil, err
		}
	}
	analysis.Inline(p, data)
	if transform {
		if p2, err = core.Transform(p, opts); err != nil {
			return nil, nil, err
		}
		// Nothing on the run path reads the facts DCE handed forward, and
		// a built program may live as long as the process (the daemon's
		// program cache): a later LintProgram solves its own.
		p2.TakeFacts()
	}
	return p, p2, nil
}

// Result carries the outcome of a run. The VM and thread remain exported
// for framework code; reporting code should use Output and Stats instead.
type Result struct {
	Value  vm.Value
	VM     *vm.VM
	Thread *vm.Thread

	out *bytes.Buffer
}

// CanceledError reports that a run was canceled through its context. The
// interpreter polls cancellation at safepoints (calls and loop back-edges),
// so cancellation latency is bounded by straight-line code between them.
// Unwrap exposes the context's error, so
// errors.Is(err, context.Canceled) and errors.Is(err, context.DeadlineExceeded)
// both work as expected.
type CanceledError struct {
	// Cause is the context's error: context.Canceled,
	// context.DeadlineExceeded, or a custom cancel cause.
	Cause error
}

func (e *CanceledError) Error() string { return "facade: run canceled: " + e.Cause.Error() }

// Unwrap returns the context error that canceled the run.
func (e *CanceledError) Unwrap() error { return e.Cause }

// Run creates a VM for p, runs the entry function on a fresh thread, and
// returns the Result. Options configure the heap budget, entry point,
// random seed, fault injection, the disk tier and warm-VM reuse:
//
//	res, err := facade.Run(p, facade.WithHeapSize(32<<20), facade.WithEntry("App.start"))
//
// The Sys.print output is available from Result.Output, and measurements
// from Result.Stats. Call Result.Close when done. Run is exactly
// RunContext(context.Background(), p, opts...).
func Run(p *ir.Program, opts ...Option) (*Result, error) {
	return RunContext(context.Background(), p, opts...)
}

// RunContext is Run with cancellation: when ctx is canceled (or its
// deadline passes), the interpreter unwinds at the next safepoint and
// RunContext returns a *CanceledError wrapping ctx's error. With
// WithReusedVM the run executes on a warm VM reset for reuse instead of
// building a fresh one — the path the repro serve daemon takes for every
// job after the first.
func RunContext(ctx context.Context, p *ir.Program, opts ...Option) (*Result, error) {
	o := defaultRunOptions()
	for _, opt := range opts {
		opt(&o)
	}
	if o.faultsErr != nil {
		return nil, o.faultsErr
	}
	out := &bytes.Buffer{}
	reg := obs.NewRegistry()
	if p.DCERemoved > 0 {
		reg.Counter(obs.CtrDCERemoved).Add(int64(p.DCERemoved))
	}
	faultCfg := o.faults
	if faultCfg != nil && o.faultAttempt >= 2 {
		derived := faultCfg.ForNode(o.faultAttempt)
		faultCfg = &derived
	}
	inj := faults.New(faultCfg)
	var tiering *offheap.TierConfig
	if o.tierHigh > 0 && p.Transformed {
		tiering = &offheap.TierConfig{Dir: o.tierDir, HighWater: o.tierHigh}
	}
	var m *vm.VM
	if o.reuseVM != nil {
		m = o.reuseVM
		if m.Prog != p {
			return nil, fmt.Errorf("facade: WithReusedVM: VM was built for a different program")
		}
		if m.Heap.Size() != o.heapSize {
			return nil, fmt.Errorf("facade: WithReusedVM: VM heap is %d bytes, run wants %d (pool by heap size)",
				m.Heap.Size(), o.heapSize)
		}
		if err := m.ResetForReuse(vm.ResetConfig{
			Out: out, RandSeed: o.randSeed, Obs: reg, Faults: inj,
			Tiering: tiering,
		}); err != nil {
			return nil, err
		}
	} else {
		var err error
		m, err = vm.New(p, vm.Config{
			HeapSize: o.heapSize, Out: out, RandSeed: o.randSeed, Obs: reg,
			GCWorkers: o.gcWorkers,
			Faults:    inj,
			Tiering:   tiering,
		})
		if err != nil {
			return nil, err
		}
	}
	if m.RT != nil {
		// Set unconditionally (including 0 = unlimited): a warm VM must
		// never run under a quota left over from the previous job.
		m.RT.SetPageQuota(o.pageQuota)
	}
	if ctx.Err() != nil {
		// context.Cause preserves a WithCancelCause/WithDeadlineCause
		// cause (e.g. a daemon's typed deadline error), falling back to
		// Canceled/DeadlineExceeded.
		return nil, &CanceledError{Cause: context.Cause(ctx)}
	}
	if ctx.Done() != nil {
		cancelDone := make(chan struct{})
		stop := context.AfterFunc(ctx, func() {
			defer close(cancelDone)
			var canceled error = &CanceledError{Cause: context.Cause(ctx)}
			m.Cancel(canceled)
		})
		// If the context fires as the run completes, stop() returns false
		// while the callback is still in flight; wait it out so a late
		// m.Cancel can never land on a VM that was already reset and
		// handed to another job.
		defer func() {
			if !stop() {
				<-cancelDone
			}
		}()
	}
	t, err := m.NewThread(nil)
	if err != nil {
		return nil, err
	}
	res := &Result{VM: m, Thread: t, out: out}
	entry := o.entry
	if p.Transformed {
		// If the entry class was transformed, run the facade twin.
		if dot := strings.IndexByte(entry, '.'); dot > 0 {
			cls, meth := entry[:dot], entry[dot+1:]
			if p.DataClasses[cls] {
				entry = ir.FuncKey(ir.FacadeName(cls), meth)
			}
		}
	}
	v, err := t.Call(entry)
	res.Value = v
	if err != nil {
		var ce *CanceledError
		if errors.As(err, &ce) {
			return res, ce
		}
		return res, fmt.Errorf("running %s: %w", entry, err)
	}
	return res, nil
}

// Output returns the Sys.print output captured so far.
func (r *Result) Output() string {
	if r.out == nil {
		return ""
	}
	return r.out.String()
}

// Close releases the run's thread and what its VM still holds for the job
// outside the Go heap: the root scope's pages and the disk tier's spill
// file. Take Stats before Close. The VM can still be handed to
// WithReusedVM.
func (r *Result) Close() {
	if r.Thread != nil {
		r.Thread.Close()
	}
	if r.VM != nil {
		_ = r.VM.Release() // fails only while other threads run; reuse then fails in ResetForReuse
	}
}
