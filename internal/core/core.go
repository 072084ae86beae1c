// Package core implements the FACADE compiler transform (§3 of the
// paper): given program P and a user-provided list of data classes, it
// produces program P' in which
//
//   - every data class D gains a facade class DFacade with no instance
//     fields, whose methods are D's methods rewritten to operate on
//     off-heap page records through 64-bit page references;
//   - heap objects of facade types are the only per-data-item objects P'
//     ever creates, and their number is statically bounded per thread by
//     the pool bounds computed in §3.3;
//   - data crossing the control/data boundary is converted by synthesized
//     conversion functions (§3.5);
//   - synchronized blocks on data records go through the shared lock pool
//     (§3.4).
//
// The transform is local (method-at-a-time) and linear in program size,
// which is what lets the paper's compiler process framework-scale
// codebases in seconds; the same property holds here and is measured by
// the compilation-speed benchmarks.
package core

import (
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/lang"
)

// Options configures the transform.
type Options struct {
	// DataClasses is the user-provided list of data classes (§3.1). The
	// transform expands it to a closure over field types, superclasses,
	// and subclasses unless NoAutoClose is set, mirroring how FACADE
	// "detected" additional data and boundary classes in §4.
	DataClasses []string
	// NoAutoClose disables closure expansion: assumption violations then
	// surface as compilation errors, as the paper specifies.
	NoAutoClose bool
	// DisableDCE skips the liveness-driven dead-code elimination pass that
	// otherwise prunes unreferenced instructions from the transformed
	// program (internal/analysis). Nothing in production sets it: the
	// un-eliminated P′ is the reference leg that
	// TestDCEPreservesOutputAndRemovesInstructions and
	// TestTransformIdempotentOnControlPath compare against (and
	// BenchmarkAblationDCE's baseline).
	DisableDCE bool
}

// DataClosure returns the closed set of data class names Transform would
// use for p under opts (§3.1's closure over supers, subs and field types).
// Passes that run before the transform and must respect the data/control
// boundary (the inliner) ask for it here.
func DataClosure(p *ir.Program, opts Options) (map[string]bool, error) {
	tr := newTransformer(p, opts)
	if err := tr.computeDataSet(); err != nil {
		return nil, err
	}
	return tr.data, nil
}

func newTransformer(p *ir.Program, opts Options) *transformer {
	return &transformer{
		p:      p,
		opts:   opts,
		data:   make(map[string]bool),
		dataIf: make(map[string]bool),
	}
}

// Transform rewrites program p into its FACADE form.
func Transform(p *ir.Program, opts Options) (*ir.Program, error) {
	tr := newTransformer(p, opts)
	if err := tr.computeDataSet(); err != nil {
		return nil, err
	}
	if err := tr.checkAssumptions(); err != nil {
		return nil, err
	}
	tr.computeBounds()
	if err := tr.buildHierarchy(); err != nil {
		return nil, err
	}
	if err := tr.buildProgram(); err != nil {
		return nil, err
	}
	if !opts.DisableDCE {
		analysis.Eliminate(tr.out)
	}
	if err := tr.out.Verify(); err != nil {
		return nil, fmt.Errorf("facade transform produced invalid IR: %w", err)
	}
	return tr.out, nil
}

type transformer struct {
	p    *ir.Program
	opts Options

	// data is the closed set of data class names; dataIf the interfaces
	// implemented by data classes (treated as data types in the data
	// path).
	data   map[string]bool
	dataIf map[string]bool

	bounds map[string]int // pool class name ("Object" for the base pool) -> bound

	newH       *lang.Hierarchy
	facadeBase *lang.Class
	bridge     *lang.Class            // FacadeBridge, owner of conversion functions
	facades    map[string]*lang.Class // original class name -> facade class
	ifaces     map[string]*lang.Iface // original iface name -> IFacade
	newStatics map[*lang.Field]*lang.Field

	out *ir.Program

	// Conversion function bookkeeping (synthesized on demand).
	convFrom    map[string]*ir.Func // class name -> convertFrom<C>
	convTo      map[string]*ir.Func
	convFromArr map[string]*ir.Func // array type string -> converter
	convToArr   map[string]*ir.Func
	convQueue   []func() error

	// em collects the instructions of the P′ function being built; every
	// function of one Transform reuses its buffers.
	em ir.Emitter
}

// isDataType reports whether a type is a data type inside the data path:
// data classes, interfaces implemented by data classes, Object and String
// (the paper's implicit exceptions), and every array type (arrays
// manipulated by data-path code live in pages).
func (tr *transformer) isDataType(t *lang.Type) bool {
	if t == nil {
		return false
	}
	switch t.Kind {
	case lang.TArray:
		return true
	case lang.TClass:
		return tr.data[t.Name] || t.Name == "Object"
	case lang.TIface:
		return tr.dataIf[t.Name]
	}
	return false
}

// isDataScalar reports data types that travel in facades (everything
// isDataType except arrays, which travel as raw page references).
func (tr *transformer) isDataScalar(t *lang.Type) bool {
	return tr.isDataType(t) && t.Kind != lang.TArray
}

// computeDataSet expands the user list to the closure required by the
// reference- and type-closed-world assumptions: superclasses and
// subclasses of data classes, and classes referenced by data-class fields.
func (tr *transformer) computeDataSet() error {
	h := tr.p.H
	var work []string
	add := func(name string) {
		if name == "Object" || tr.data[name] {
			return
		}
		if h.Class(name) == nil {
			return
		}
		tr.data[name] = true
		work = append(work, name)
	}
	for _, n := range tr.opts.DataClasses {
		if h.Class(n) == nil {
			return fmt.Errorf("facade: unknown data class %s", n)
		}
		add(n)
	}
	if len(tr.data) == 0 {
		return fmt.Errorf("facade: no data classes specified")
	}
	if h.Class("String") != nil {
		// String is a data class whenever the data path can touch it.
		add("String")
	}
	if tr.opts.NoAutoClose {
		work = nil
	}
	for len(work) > 0 {
		name := work[len(work)-1]
		work = work[:len(work)-1]
		c := h.Class(name)
		// Type-closed world: supers and subs are data (§3.1).
		if c.Super != nil && c.Super.Name != "Object" {
			add(c.Super.Name)
		}
		for _, s := range c.Subs {
			add(s.Name)
		}
		// Reference-closed world: field class types are data.
		for _, f := range c.AllFields {
			addTypeClosure(f.Type, add, tr)
		}
	}
	// Interfaces implemented by data classes.
	for name := range tr.data {
		for x := h.Class(name); x != nil; x = x.Super {
			for _, i := range x.Ifaces {
				tr.dataIf[i.Name] = true
			}
		}
	}
	return nil
}

func addTypeClosure(t *lang.Type, add func(string), tr *transformer) {
	switch t.Kind {
	case lang.TClass:
		add(t.Name)
	case lang.TArray:
		addTypeClosure(t.Elem, add, tr)
	case lang.TIface:
		// Every implementor of an interface reachable from data fields
		// must be data.
		for _, c := range tr.p.H.ClassList {
			if impl := tr.p.H.Iface(t.Name); impl != nil && c.Implements(impl) {
				add(c.Name)
			}
		}
	}
}

// checkAssumptions enforces the two closed-world assumptions of §3.1 and
// reports compilation errors on violations, exactly as FACADE does.
func (tr *transformer) checkAssumptions() error {
	h := tr.p.H
	for _, name := range tr.sortedDataNames() {
		c := h.Class(name)
		// Reference-closed world: reference fields of data classes have
		// data types.
		for _, f := range c.Fields {
			if err := tr.checkFieldType(c, f); err != nil {
				return err
			}
		}
		// Type-closed world: supers (except Object) and subs are data.
		if c.Super != nil && c.Super.Name != "Object" && !tr.data[c.Super.Name] {
			return fmt.Errorf("facade: type-closed-world violation: data class %s extends non-data class %s (refactor the program or add %s to the data path)",
				c.Name, c.Super.Name, c.Super.Name)
		}
		for _, s := range c.Subs {
			if !tr.data[s.Name] {
				return fmt.Errorf("facade: type-closed-world violation: non-data class %s extends data class %s", s.Name, c.Name)
			}
		}
	}
	return nil
}

func (tr *transformer) checkFieldType(c *lang.Class, f *lang.Field) error {
	t := f.Type
	for t.Kind == lang.TArray {
		t = t.Elem
	}
	switch t.Kind {
	case lang.TClass:
		if t.Name != "Object" && !tr.data[t.Name] {
			return fmt.Errorf("facade: reference-closed-world violation: field %s.%s has non-data class type %s",
				c.Name, f.Name, t.Name)
		}
	case lang.TIface:
		if !tr.dataIf[t.Name] {
			// An interface type only reachable through data fields: its
			// implementors were pulled into the closure, so mark it.
			tr.dataIf[t.Name] = true
		}
	}
	return nil
}

func (tr *transformer) sortedDataNames() []string {
	names := make([]string, 0, len(tr.data))
	for n := range tr.data {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// poolClassName maps a declared parameter type to the pool it draws
// facades from (§3.3): a concrete data class uses its own pool; an
// interface or abstract type is attributed to an arbitrary concrete
// subtype; Object uses the base Facade pool, reported as "Object".
func (tr *transformer) poolClassName(t *lang.Type) (string, error) {
	switch t.Kind {
	case lang.TClass:
		if t.Name == "Object" {
			return "Object", nil
		}
		if tr.data[t.Name] {
			return t.Name, nil
		}
	case lang.TIface:
		for _, c := range tr.p.H.ClassList {
			if tr.data[c.Name] && c.Implements(tr.p.H.Iface(t.Name)) {
				return c.Name, nil
			}
		}
		return "", fmt.Errorf("facade: interface %s has no concrete data implementor", t.Name)
	}
	return "", fmt.Errorf("facade: %s is not a pooled data type", t)
}

// computeBounds implements §3.3: for each data type, the parameter-pool
// bound is the maximum number of parameters of that (static, pool-mapped)
// type any data-path method takes; constructors count one extra slot for
// the receiver binding at allocation sites. Every pool has at least one
// facade (allocation and return sites use index 0).
func (tr *transformer) computeBounds() {
	tr.bounds = make(map[string]int)
	for _, name := range tr.sortedDataNames() {
		tr.bounds[name] = 1
	}
	tr.bounds["Object"] = 1
	note := func(m *lang.Method, extraOwner string) {
		counts := make(map[string]int)
		if extraOwner != "" {
			counts[extraOwner] = 1
		}
		for _, pt := range m.Params {
			if tr.isDataScalar(pt) {
				if pool, err := tr.poolClassName(pt); err == nil {
					counts[pool]++
				}
			}
		}
		for pool, n := range counts {
			if n > tr.bounds[pool] {
				tr.bounds[pool] = n
			}
		}
	}
	for _, name := range tr.sortedDataNames() {
		c := tr.p.H.Class(name)
		if c.Ctor != nil {
			note(c.Ctor, name)
		}
		for _, mn := range sortedKeys(c.Methods) {
			note(c.Methods[mn], "")
		}
	}
}
