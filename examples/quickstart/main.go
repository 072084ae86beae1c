// Quickstart: compile an FJ program, run it as-is (program P, data on the
// managed heap under the generational collector), apply the FACADE
// transform, run the result (program P', data in off-heap pages behind
// bounded facade pools), and compare what the memory system did.
//
//	go run ./examples/quickstart
package main

import (
	_ "embed"
	"fmt"
	"log"

	"repro/facade"
)

// The FJ program lives in its own file so `facadec vet` (and CI) can check
// it directly; its "// facadec: data=..." directive names the data classes.
//
//go:embed quickstart.fj
var src string

func main() {
	// 1. Compile FJ to IR — program P — and FACADE-transform its data path
	// — program P'.
	prog, p2, err := facade.Build(map[string]string{"quickstart.fj": src}, facade.DataClassesDirective(src))
	if err != nil {
		log.Fatalf("build: %v", err)
	}

	// 2. Run P on the managed heap (16 MB budget).
	resP, err := facade.Run(prog, facade.WithHeapSize(16<<20))
	if err != nil {
		log.Fatalf("run P: %v", err)
	}
	defer resP.Close()

	// 3. Run P' with the same heap budget.
	resP2, err := facade.Run(p2, facade.WithHeapSize(16<<20))
	if err != nil {
		log.Fatalf("run P': %v", err)
	}
	defer resP2.Close()

	outP, outP2 := resP.Output(), resP2.Output()
	fmt.Printf("P  output: %s", outP)
	fmt.Printf("P' output: %s", outP2)
	if outP != outP2 {
		log.Fatal("outputs differ — the transform must be semantics-preserving")
	}

	// 4. Compare what the memory system did, via the public stats mirror.
	st, st2 := resP.Stats(), resP2.Stats()
	fmt.Println()
	fmt.Printf("%-34s %12s %12s\n", "", "P (heap)", "P' (facade)")
	fmt.Printf("%-34s %12d %12d\n", "Tuple heap objects allocated", st.ClassAllocs["Tuple"], st2.ClassAllocs["TupleFacade"])
	fmt.Printf("%-34s %12d %12d\n", "collections (minor+full)", st.Heap.MinorGCs+st.Heap.FullGCs, st2.Heap.MinorGCs+st2.Heap.FullGCs)
	fmt.Printf("%-34s %12.1f %12.1f\n", "GC time (ms)", float64(st.Heap.GCTime.Microseconds())/1000, float64(st2.Heap.GCTime.Microseconds())/1000)
	fmt.Printf("%-34s %12.3f %12.3f\n", "p95 GC pause (ms)", float64(st.GCPauses().Quantile(0.95))/1e6, float64(st2.GCPauses().Quantile(0.95))/1e6)
	fmt.Printf("%-34s %12s %12d\n", "native pages (32 KB, recycled)", "-", st2.Offheap.PagesCreated)
	fmt.Printf("%-34s %12s %12d\n", "page records allocated", "-", st2.Offheap.Records)
	fmt.Printf("%-34s %12d %12d\n", "pool bound for Tuple (§3.3)", 0, p2.Bounds["Tuple"])
}
