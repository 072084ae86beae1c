package analysis_test

// The lifetime pass's SCC summary solver against the round-robin solver it
// replaced (the oracle in lifetime_oracle_test.go), and the hand-off of
// DCE's last-sweep facts to the linter and the lifetime pass, over every FJ
// program of the DCE differential: the engines, the daemon scenarios and
// facade's FuzzBuild corpus.

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/facade"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/ir"
)

// lifetimePrograms returns P and P′ (with DCE, not inlined) of every input
// that builds, by name.
func lifetimePrograms(t *testing.T) (names []string, progs []*ir.Program) {
	t.Helper()
	for _, in := range dceInputs(t) {
		p, err := facade.Compile(in.sources)
		if err != nil {
			if in.exact {
				t.Fatal(err)
			}
			continue
		}
		names, progs = append(names, in.name+"/P"), append(progs, p)
		if len(in.data) == 0 {
			continue
		}
		p2, err := buildP2(in, false, false)
		if err != nil {
			if in.exact {
				t.Fatal(err)
			}
			continue
		}
		names, progs = append(names, in.name+"/P2"), append(progs, p2)
	}
	return names, progs
}

// mutualEscape is a recursive component that needs a second round in
// either member order: a's x escapes only through b's y, and b's w only
// through a's u, so whichever member is analysed first learns its escape
// from the other one round late. Each call in main passes a fresh site to
// the late parameter.
const mutualEscape = `
class Box { Object v; }
class Main {
    static Box sink;
    static void a(Object x, Object u, int n) {
        if (n > 0) { Main.b(x, u, n - 1); }
        Main.sink.v = u;
    }
    static void b(Object y, Object w, int n) {
        if (n > 0) { Main.a(y, w, n - 1); }
        Main.sink.v = y;
    }
    static void main() {
        Main.sink = new Box();
        Main.a(new Box(), null, 2);
        Main.b(null, new Box(), 2);
    }
}
`

func TestSCCSolverMatchesRoundRobin(t *testing.T) {
	names, progs := lifetimePrograms(t)
	p, err := facade.Compile(map[string]string{"mutual.fj": mutualEscape})
	if err != nil {
		t.Fatal(err)
	}
	names, progs = append(names, "mutual-escape/P"), append(progs, p)
	var recursive int
	for i, p := range progs {
		got, n := analysis.CountedLifetimeReport(p)
		want, oracleN := analysis.OracleLifetimeReport(p)
		if !reflect.DeepEqual(got, want) {
			for j := range max(len(got), len(want)) {
				var g, w analysis.SiteClass
				if j < len(got) {
					g = got[j]
				}
				if j < len(want) {
					w = want[j]
				}
				if g != w {
					t.Errorf("%s: site %d:\n got %s\nwant %s", names[i], j, g, w)
					break
				}
			}
			continue
		}
		if n.Analyses != n.Funcs+n.Refined+n.Repeats {
			t.Errorf("%s: %d analyze calls, want one per function (%d), one per refined entry (%d) and the %d repeats in recursive components",
				names[i], n.Analyses, n.Funcs, n.Refined, n.Repeats)
		}
		if n.Analyses > oracleN {
			t.Errorf("%s: %d analyze calls, the round-robin solver %d", names[i], n.Analyses, oracleN)
		}
		if n.Repeats > 0 {
			recursive++
		}
		if i < 14 {
			t.Logf("%s: %d functions, %d refined, %d repeats: %d analyze calls, round-robin %d",
				names[i], n.Funcs, n.Refined, n.Repeats, n.Analyses, oracleN)
		}
	}
	if recursive == 0 {
		t.Error("no program has a recursive component that needs a second round")
	}
}

func TestDCEHandsItsFactsForward(t *testing.T) {
	names, progs := lifetimePrograms(t)
	for i, p := range progs {
		if !p.Transformed {
			if analysis.HoldsFacts(p) {
				t.Errorf("%s: P holds facts; only DCE publishes them", names[i])
			}
			continue
		}
		if err := analysis.CheckHeldFacts(p); err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		withFacts := analysis.LintProgram(p)
		if !analysis.HoldsFacts(p) {
			t.Fatalf("%s: the linter took the facts", names[i])
		}
		classes := analysis.Lifetimes(p)
		if analysis.HoldsFacts(p) {
			t.Fatalf("%s: the program still holds facts after Lifetimes", names[i])
		}
		if got := analysis.LintProgram(p); !reflect.DeepEqual(got, withFacts) {
			t.Errorf("%s: lint on handed-over facts %v, on fresh ones %v", names[i], withFacts, got)
		}
		fresh := make([]ir.Lifetime, p.NumSites+1)
		for _, sc := range analysis.LifetimeReport(p) {
			fresh[sc.Site] = sc.Class
		}
		if !slices.Equal(classes, fresh) {
			t.Errorf("%s: Lifetimes on handed-over facts %v, LifetimeReport %v", names[i], classes, fresh)
		}
	}
}

func TestSeedViolationDropsTheFacts(t *testing.T) {
	for _, in := range dceInputs(t)[:3] { // the engines: every kind applies
		for _, kind := range []string{"use-before-def", "pool-clobber"} {
			p2, err := buildP2(in, false, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := analysis.SeedViolation(p2, kind); err != nil {
				t.Fatal(err)
			}
			if analysis.HoldsFacts(p2) {
				t.Fatalf("%s/%s: the seeded program still holds DCE's facts", in.name, kind)
			}
			seen := false
			for _, f := range analysis.LintProgram(p2) {
				seen = seen || f.Check == kind
			}
			if !seen {
				t.Errorf("%s/%s: the seeded finding is not reported", in.name, kind)
			}
			fresh := make([]ir.Lifetime, p2.NumSites+1)
			for _, sc := range analysis.LifetimeReport(p2) {
				fresh[sc.Site] = sc.Class
			}
			if got := analysis.Lifetimes(p2); !slices.Equal(got, fresh) {
				t.Errorf("%s/%s: Lifetimes %v, a fresh LifetimeReport %v", in.name, kind, got, fresh)
			}
		}
	}
}

// retainedHeap returns the Go heap that the programs build makes for every
// engine and daemon scenario still hold after a collection.
func retainedHeap(t *testing.T, build func(in dceInput) []*ir.Program) int64 {
	t.Helper()
	inputs := dceInputs(t)[:7]
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var progs []*ir.Program
	for _, in := range inputs {
		progs = append(progs, build(in)...)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(progs)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestClassifiedProgramsRetainNoFacts builds, lints and classifies P′ of
// every engine and daemon scenario, the way the compile benchmark does, and
// holds the Go heap they retain to that of the same programs whose facts
// were dropped as soon as the transform returned: the hand-off must not
// outlive the lifetime pass.
func TestClassifiedProgramsRetainNoFacts(t *testing.T) {
	retained := func(drop, classify bool) int64 {
		return retainedHeap(t, func(in dceInput) []*ir.Program {
			p, err := facade.Compile(in.sources)
			if err != nil {
				t.Fatal(err)
			}
			p2, err := core.Transform(p, core.Options{DataClasses: in.data})
			if err != nil {
				t.Fatal(err)
			}
			if drop {
				p2.TakeFacts()
			}
			analysis.LintProgram(p2)
			if classify {
				analysis.Lifetimes(p2)
			}
			return []*ir.Program{p, p2}
		})
	}
	retained(true, true) // the stdlib's tokens, and any other first-use state
	dropped, handedOver, held := retained(true, true), retained(false, true), retained(false, false)
	t.Logf("retained Go heap: facts dropped %d B, taken by Lifetimes %d B, never taken %d B (+%.1f %%)",
		dropped, handedOver, held, 100*float64(held-dropped)/float64(dropped))
	if slack := dropped / 100; handedOver > dropped+slack {
		t.Errorf("classified programs retain %d B, %d B more than with the facts dropped", handedOver, handedOver-dropped)
	}
	if held <= dropped+dropped/100 {
		t.Errorf("programs that hold their facts retain %d B, with them dropped %d B: the measurement cannot see the facts", held, dropped)
	}
}

// TestBuiltProgramsRetainNoFacts holds facade.Build's P and P′ of every
// engine and daemon scenario to no facts, and to no more Go heap than the
// same inlined pair retains once the lifetime pass has taken DCE's facts,
// which is what a run used to leave on a built program.
func TestBuiltProgramsRetainNoFacts(t *testing.T) {
	built := func(in dceInput) []*ir.Program {
		p, p2, err := facade.Build(in.sources, in.data)
		if err != nil {
			t.Fatal(err)
		}
		if analysis.HoldsFacts(p) || analysis.HoldsFacts(p2) {
			t.Fatalf("%s: a built program holds facts", in.name)
		}
		return []*ir.Program{p, p2}
	}
	inlined := func(classify bool) func(in dceInput) []*ir.Program {
		return func(in dceInput) []*ir.Program {
			p, err := facade.Compile(in.sources)
			if err != nil {
				t.Fatal(err)
			}
			opts := core.Options{DataClasses: in.data}
			data, err := core.DataClosure(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			analysis.Inline(p, data)
			p2, err := core.Transform(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			if classify {
				analysis.Lifetimes(p2)
			}
			return []*ir.Program{p, p2}
		}
	}
	retainedHeap(t, built) // the stdlib's tokens, and any other first-use state
	b, classified, held := retainedHeap(t, built), retainedHeap(t, inlined(true)), retainedHeap(t, inlined(false))
	t.Logf("retained Go heap: built %d B, classified %d B, holding facts %d B", b, classified, held)
	if slack := classified / 100; b > classified+slack {
		t.Errorf("built programs retain %d B, %d B more than classified ones", b, b-classified)
	}
	if held <= b+b/100 {
		t.Errorf("programs that hold their facts retain %d B, built ones %d B: the measurement cannot see the facts", held, b)
	}
}
