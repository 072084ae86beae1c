package facade

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestCompileErrorsSurface(t *testing.T) {
	cases := map[string]string{
		"parse":   "class {",
		"check":   "class Main { static void main() { int x = true; } }",
		"hier":    "class A extends A { }",
		"unknown": "class Main { static void main() { Unknown u = null; } }",
	}
	for name, src := range cases {
		if _, err := Compile(map[string]string{"x.fj": src}); err == nil {
			t.Fatalf("%s: compile accepted invalid source", name)
		}
	}
}

func TestRunMissingEntry(t *testing.T) {
	prog, err := Compile(map[string]string{"x.fj": "class Foo { int x; }"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(prog)
	if err == nil || !strings.Contains(err.Error(), "Main.main") {
		t.Fatalf("missing entry not reported: %v", err)
	}
}

func TestRunCustomEntry(t *testing.T) {
	prog, err := Compile(map[string]string{"x.fj": `
class App {
    static void start() { Sys.println(7); }
}
`})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(prog, WithEntry("App.start"))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if out := res.Output(); out != "7\n" {
		t.Fatalf("got %q", out)
	}
}

func TestTransformRequiresDataClasses(t *testing.T) {
	prog, err := Compile(map[string]string{"x.fj": "class Main { static void main() { } }"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Transform(prog, TransformOptions{}); err == nil {
		t.Fatal("transform without data classes must fail")
	}
	if _, err := Transform(prog, TransformOptions{DataClasses: []string{"Nope"}}); err == nil {
		t.Fatal("unknown data class must fail")
	}
}

func TestEntryRemapToFacade(t *testing.T) {
	src := `
class Main {
    static void main() { Sys.println(new D().get()); }
}
class D {
    int get() { return 11; }
}
`
	prog, err := Compile(map[string]string{"x.fj": src})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Transform(prog, TransformOptions{DataClasses: []string{"D", "Main"}})
	if err != nil {
		t.Fatal(err)
	}
	// Run must route "Main.main" to "MainFacade.main" automatically.
	res, err := Run(p2)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if out := res.Output(); out != "11\n" {
		t.Fatalf("got %q", out)
	}
}

// allocHeavySrc allocates enough under a small heap to force collections,
// so stats tests see nonzero GC activity.
const allocHeavySrc = `
class Rec {
    long a;
    long b;
    Rec(long a) { this.a = a; this.b = a * 2L; }
}
class Main {
    static void main() {
        long acc = 0L;
        for (int it = 0; it < 20; it = it + 1) {
            Sys.iterStart();
            for (int i = 0; i < 3000; i = i + 1) {
                Rec r = new Rec(i);
                acc = acc + r.b;
            }
            Sys.iterEnd();
        }
        Sys.println(acc);
    }
}
`

func TestRunStatsMirrorsInternal(t *testing.T) {
	prog, err := Compile(map[string]string{"x.fj": allocHeavySrc})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(prog, WithHeapSize(2<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()

	st := res.Stats()
	hs := res.VM.Heap.Stats()
	if st.Heap.AllocBytes != hs.AllocBytes ||
		st.Heap.AllocObjects != hs.AllocObjects ||
		st.Heap.MinorGCs != hs.MinorGCs ||
		st.Heap.FullGCs != hs.FullGCs ||
		st.Heap.GCTime != hs.GCTime ||
		st.Heap.PeakUsed != hs.PeakUsed ||
		st.Heap.HeapSize != hs.HeapSize {
		t.Fatalf("RunStats.Heap diverges from heap.Stats: %+v vs %+v", st.Heap, hs)
	}
	if st.Heap.MinorGCs+st.Heap.FullGCs == 0 {
		t.Fatal("workload expected to trigger collections")
	}
	if st.ClassAllocs["Rec"] == 0 {
		t.Fatalf("per-class allocation counts missing: %v", st.ClassAllocs)
	}
	if !slices.ContainsFunc(st.Events, func(e Event) bool { return e.Kind == obs.EvGC }) {
		t.Fatalf("no gc event among the run's %d events", len(st.Events))
	}
	// Every collection records one pause observation.
	p := st.GCPauses()
	if p.Count != st.Heap.MinorGCs+st.Heap.FullGCs {
		t.Fatalf("pause count %d != collections %d", p.Count, st.Heap.MinorGCs+st.Heap.FullGCs)
	}
	if p.Quantile(0.95) < p.Quantile(0.5) || p.Quantile(1) > p.Max {
		t.Fatalf("quantiles inconsistent: p50=%d p95=%d max=%d", p.Quantile(0.5), p.Quantile(0.95), p.Max)
	}
	if st.VM.Instructions == 0 {
		t.Fatal("instruction counter not flushed")
	}
	if st.Counters["vm.instructions"] != st.VM.Instructions {
		t.Fatal("VMStats must mirror the named counter")
	}
}

func TestRunTransformedStats(t *testing.T) {
	prog, err := Compile(map[string]string{"x.fj": allocHeavySrc})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Transform(prog, TransformOptions{DataClasses: []string{"Rec", "Main"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p2, WithHeapSize(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	st := res.Stats()
	if st.Offheap.PagesCreated == 0 || st.Offheap.Records == 0 {
		t.Fatalf("off-heap stats not populated: %+v", st.Offheap)
	}
	if st.Offheap.PagesLiveHW < st.Offheap.PagesLive {
		t.Fatalf("high-water %d below live %d", st.Offheap.PagesLiveHW, st.Offheap.PagesLive)
	}
	if st.VM.FacadePoolHits == 0 {
		t.Fatal("facade pool hits not counted on transformed run")
	}
	if n := st.Counters[obs.CtrDCERemoved]; n == 0 || n != int64(p2.DCERemoved) {
		t.Fatalf("%s = %d, program's DCERemoved %d (DCE is on by default)", obs.CtrDCERemoved, n, p2.DCERemoved)
	}
}

// TestAliasedStatsFieldsCarryJSONTags: HeapStats, OffheapStats and
// Histogram are the internal snapshot types, so a field added there lands
// in facade.run/v1 and facade.job/v1 — it must at least choose its key, not
// default to the Go field name.
func TestAliasedStatsFieldsCarryJSONTags(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(HeapStats{}), reflect.TypeOf(OffheapStats{}), reflect.TypeOf(Histogram{})} {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if name, _, _ := strings.Cut(f.Tag.Get("json"), ","); name == "" {
				t.Errorf("%s.%s has no json key", typ, f.Name)
			}
		}
	}
}

// TestRunStatsIsTheSnapshotAndItsViews pins RunStats' fields: the
// embedded registry snapshot and the typed views of it. A run keeps one
// book, so a counter belongs in the registry, not in a struct here that
// copies it by hand.
func TestRunStatsIsTheSnapshotAndItsViews(t *testing.T) {
	typ := reflect.TypeOf(RunStats{})
	var got []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Anonymous && f.Type != reflect.TypeOf(obs.Snapshot{}) {
			t.Errorf("RunStats embeds %s, want only obs.Snapshot", f.Type)
		}
		got = append(got, f.Name)
	}
	slices.Sort(got)
	if want := []string{"ClassAllocs", "Heap", "Offheap", "Snapshot", "VM"}; !slices.Equal(got, want) {
		t.Fatalf("RunStats fields %v, want %v", got, want)
	}
}

func TestWithRandSeedZeroHonored(t *testing.T) {
	src := `
class Main {
    static void main() {
        for (int i = 0; i < 5; i = i + 1) { Sys.println(Sys.rand(1000000)); }
    }
}
`
	prog, err := Compile(map[string]string{"x.fj": src})
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts ...Option) string {
		t.Helper()
		res, err := Run(prog, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Close()
		return res.Output()
	}
	seed0 := run(WithRandSeed(0))
	seed1 := run(WithRandSeed(1))
	if seed0 == seed1 {
		t.Fatal("WithRandSeed(0) remapped to seed 1")
	}
	// Without WithRandSeed the default seed is 1.
	res, err := Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if res.Output() != seed1 {
		t.Fatal("default seed must stay 1")
	}
}

func TestGCStressUnderTinyHeapBothPrograms(t *testing.T) {
	// Run a heavy allocation workload under a minimal heap: P must
	// survive via many collections, P' via page recycling. The iterations
	// allocate six times the nursery a 2 MiB heap starts with, in 32-byte
	// Recs, 3000 an iteration.
	empty, err := Compile(map[string]string{"e.fj": "class Main { static void main() { } }"})
	if err != nil {
		t.Fatal(err)
	}
	probe, err := Run(empty, WithHeapSize(2<<20))
	if err != nil {
		t.Fatal(err)
	}
	iters := 6*probe.Stats().Gauges[obs.GaugeNurseryBytes]/(3000*32) + 1
	probe.Close()
	src := fmt.Sprintf(`
class Rec {
    long a;
    long b;
    Rec(long a) { this.a = a; this.b = a * 2L; }
}
class Main {
    static void main() {
        long acc = 0L;
        for (int it = 0; it < %d; it = it + 1) {
            Sys.iterStart();
            for (int i = 0; i < 3000; i = i + 1) {
                Rec r = new Rec(i);
                acc = acc + r.b;
            }
            Sys.iterEnd();
        }
        Sys.println(acc);
    }
}
`, iters)
	out := runBoth(t, src, []string{"Rec", "Main"})
	if want := fmt.Sprintf("%d\n", iters*8997000); out != want { // 2 × (0 + … + 2999) an iteration
		t.Fatalf("got %q, want %q", out, want)
	}
	// And explicitly with a 2 MiB heap for P.
	prog, _ := Compile(map[string]string{"x.fj": src})
	res, err := Run(prog, WithHeapSize(2<<20))
	if err != nil {
		t.Fatalf("P under tiny heap: %v", err)
	}
	defer res.Close()
	if res.Output() != out {
		t.Fatal("tiny-heap run diverges")
	}
	if res.VM.Heap.Stats().MinorGCs+res.VM.Heap.Stats().FullGCs < 5 {
		t.Fatal("expected sustained collection activity")
	}
}

// TestHugeArraysRunOutOfMemory: an array larger than P's old generation
// can ever hold, 4 GiB and up included, ends the run in OutOfMemoryError
// without a collection; the array's byte size must not wrap into a small
// heap address.
func TestHugeArraysRunOutOfMemory(t *testing.T) {
	for _, c := range []struct{ elem, n string }{
		{"long", "536870912"},   // 4 GiB of elements
		{"Object", "536870912"}, // 4 GiB of references
		{"int", "1073741824"},   // 4 GiB of ints
		{"int", "2147483647"},   // the longest array there is
		{"long", "1048576"},     // 8 MiB: past the bound, short of 4 GiB
	} {
		t.Run(c.elem+"["+c.n+"]", func(t *testing.T) {
			src := fmt.Sprintf(`
class Main {
    static void main() {
        Sys.println(1);
        %s[] a = new %s[%s];
        Sys.println(a.length);
    }
}
`, c.elem, c.elem, c.n)
			prog, err := Compile(map[string]string{"x.fj": src})
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(prog, WithHeapSize(8<<20))
			if err == nil || !strings.Contains(err.Error(), "OutOfMemoryError") {
				t.Fatalf("new %s[%s] in an 8 MiB heap: %v, want OutOfMemoryError", c.elem, c.n, err)
			}
			defer res.Close()
			if res.Output() != "1\n" {
				t.Fatalf("output %q, want the line before the allocation", res.Output())
			}
			if st := res.Stats().Heap; st.MinorGCs+st.FullGCs != 0 {
				t.Fatalf("%d minor and %d full collections for an allocation no collection can make room for",
					st.MinorGCs, st.FullGCs)
			}
		})
	}
}

func TestWithFaultsInjectsAndCounts(t *testing.T) {
	prog, err := Compile(map[string]string{"x.fj": allocHeavySrc})
	if err != nil {
		t.Fatal(err)
	}

	// A malformed spec fails the Run call.
	if _, err := Run(prog, WithFaults("bogus=1")); err == nil {
		t.Fatal("malformed faults spec accepted")
	}

	// An injected allocation failure surfaces as OutOfMemoryError and is
	// counted in RunStats' faults.* counters.
	res, err := Run(prog, WithHeapSize(2<<20), WithFaults("allocat=1,seed=7"))
	if err == nil || !strings.Contains(err.Error(), "OutOfMemoryError") {
		t.Fatalf("injected alloc fault not surfaced as OOM: %v", err)
	}
	if res == nil {
		t.Fatal("Result must be returned alongside the program error")
	}
	defer res.Close()
	if got := res.Stats().Counters[obs.CtrFaultHeapAlloc]; got != 1 {
		t.Fatalf("%s = %d, want 1", obs.CtrFaultHeapAlloc, got)
	}

	// An empty spec disables injection entirely.
	clean, err := Run(prog, WithHeapSize(2<<20), WithFaults(""))
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	for name, n := range clean.Stats().Counters {
		if strings.HasPrefix(name, "faults.") && n != 0 {
			t.Fatalf("fault-free run reports %s = %d", name, n)
		}
	}
}

func TestWithFaultsPageInjection(t *testing.T) {
	prog, err := Compile(map[string]string{"x.fj": allocHeavySrc})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Transform(prog, TransformOptions{DataClasses: []string{"Rec", "Main"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p2, WithHeapSize(8<<20), WithFaults("pageat=1,seed=7"))
	if err == nil || !strings.Contains(err.Error(), "page store exhausted") {
		t.Fatalf("injected page fault not surfaced: %v", err)
	}
	if res == nil {
		t.Fatal("Result must be returned alongside the program error")
	}
	defer res.Close()
	if got := res.Stats().Counters[obs.CtrFaultPageAcquire]; got != 1 {
		t.Fatalf("%s = %d, want 1", obs.CtrFaultPageAcquire, got)
	}
}
