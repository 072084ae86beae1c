// Command facadec is the standalone FACADE compiler driver: it compiles
// FJ source files, applies the FACADE transform for a user-provided data
// class list (§3.1's user obligation), and reports what the paper's
// compiler reports — the detected data-class closure, the per-type facade
// pool bounds, the synthesized conversion functions, and the compilation
// speed in instructions per second.
//
// Usage:
//
//	facadec -data Vertex,Edge [-dump] [-run Main.main] file.fj...
//
// Flags:
//
//	-data C1,C2   seed data classes (required unless -check-only)
//	-strict       disable closure expansion; report assumption violations
//	-dump         print the transformed IR of facade classes
//	-run KEY      execute the given entry point in both P and P' and
//	              compare outputs
//	-heap N       heap size in MiB for -run (default 64)
//	-check-only   parse and type-check only
//
// Subcommands:
//
//	facadec vet [-data C1,C2] [-strict] [-seed KIND] file.fj...
//
// vet compiles each file independently, runs the IR verifier and the
// facade-safety linter over both P and the transformed P', and prints
// file:line diagnostics. Data classes come from -data or from a
// "// facadec: data=C1,C2" directive in the file. Exit status is 1 when
// any file fails to verify or has lint findings.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/facade"
	"repro/internal/core"
	"repro/internal/ir"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "vet" {
		os.Exit(vetMain(os.Args[2:]))
	}
	dataList := flag.String("data", "", "comma-separated data classes")
	strict := flag.Bool("strict", false, "disable closure expansion (report violations)")
	dump := flag.Bool("dump", false, "dump transformed facade IR")
	run := flag.String("run", "", "entry point to execute in P and P'")
	heapMB := flag.Int("heap", 64, "heap size in MiB for -run")
	checkOnly := flag.Bool("check-only", false, "parse and type-check only")
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: facadec -data C1,C2 [flags] file.fj...")
		os.Exit(2)
	}
	sources := map[string]string{}
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		sources[path] = string(data)
	}
	if *checkOnly {
		prog, err := facade.Compile(sources)
		if err != nil {
			fatal(err)
		}
		report(prog)
		return
	}
	if *dataList == "" {
		fatal(fmt.Errorf("-data is required (the user-provided data class list, §3.1)"))
	}
	start := time.Now()
	prog, p2, err := facade.BuildWith(sources, core.Options{
		DataClasses: strings.Split(*dataList, ","), NoAutoClose: *strict,
	})
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	report(prog)
	n := prog.InstrsInClasses(sortedKeys(p2.DataClasses))
	fmt.Printf("built %d data-path instructions in %v, parse to transform (%.0f instr/sec)\n",
		n, elapsed, float64(n)/elapsed.Seconds())

	var names []string
	for c := range p2.DataClasses {
		names = append(names, c)
	}
	sort.Strings(names)
	fmt.Printf("data-class closure (%d): %s\n", len(names), strings.Join(names, ", "))
	fmt.Println("facade pool bounds (§3.3):")
	var bnames []string
	for c := range p2.Bounds {
		bnames = append(bnames, c)
	}
	sort.Strings(bnames)
	for _, c := range bnames {
		fmt.Printf("  %-20s %d\n", ir.FacadeName(c), p2.Bounds[c])
	}
	conv := 0
	for _, f := range p2.FuncList {
		if f.Class != nil && f.Class.Name == "FacadeBridge" {
			conv++
		}
	}
	fmt.Printf("synthesized conversion functions: %d\n", conv)

	if *dump {
		for _, f := range p2.FuncList {
			if f.Class == nil {
				continue
			}
			if _, ok := ir.FacadeOrig(f.Class.Name); ok {
				fmt.Println()
				fmt.Print(f.String())
			}
		}
	}

	if *run != "" {
		resP, err := facade.Run(prog, facade.WithEntry(*run), facade.WithHeapSize(*heapMB<<20))
		if err != nil {
			fatal(fmt.Errorf("running P: %w", err))
		}
		outP := resP.Output()
		resP.Close()
		resP2, err := facade.Run(p2, facade.WithEntry(*run), facade.WithHeapSize(*heapMB<<20))
		if err != nil {
			fatal(fmt.Errorf("running P': %w", err))
		}
		outP2 := resP2.Output()
		resP2.Close()
		fmt.Printf("\n--- P output ---\n%s", outP)
		fmt.Printf("--- P' output ---\n%s", outP2)
		if outP == outP2 {
			fmt.Println("outputs IDENTICAL")
		} else {
			fmt.Println("outputs DIFFER")
			os.Exit(1)
		}
	}
}

// vetMain implements `facadec vet`. Each file is compiled and vetted
// independently so one file's diagnostics (or parse errors) do not mask
// another's.
func vetMain(argv []string) int {
	fs := flag.NewFlagSet("facadec vet", flag.ExitOnError)
	dataList := fs.String("data", "", "comma-separated data classes (overrides in-file directives)")
	strict := fs.Bool("strict", false, "disable closure expansion")
	seed := fs.String("seed", "", "inject a violation into P' (use-before-def, pool-clobber)")
	lifetimes := fs.Bool("lifetimes", false, "report per-allocation-site lifetime classifications")
	jsonOut := fs.Bool("json", false, "emit one facade.vet/v1 JSON report per file")
	fs.Parse(argv)
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: facadec vet [-data C1,C2] [-strict] [-seed KIND] [-lifetimes] [-json] file.fj...")
		return 2
	}
	var data []string
	if *dataList != "" {
		data = strings.Split(*dataList, ",")
	}
	status := 0
	for _, path := range fs.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "facadec vet: %v\n", err)
			status = 1
			continue
		}
		vopts := []facade.VetOption{facade.VetWithDataClasses(data...)}
		if *strict {
			vopts = append(vopts, facade.VetStrict())
		}
		if *seed != "" {
			vopts = append(vopts, facade.VetWithSeedViolation(*seed))
		}
		if *lifetimes {
			vopts = append(vopts, facade.VetLifetimes())
		}
		r, err := facade.Vet(map[string]string{path: string(src)}, vopts...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "facadec vet: %s: %v\n", path, err)
			status = 1
			continue
		}
		if *jsonOut {
			r.File = path
			if err := r.JSON(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "facadec vet: %s: %v\n", path, err)
				status = 1
			}
		} else {
			fmt.Printf("== %s ==\n%s", path, r.Report())
		}
		if !r.Clean() {
			status = 1
		}
	}
	return status
}

func report(prog *ir.Program) {
	fmt.Printf("compiled %d classes, %d functions, %d IR instructions\n",
		len(prog.H.ClassList), len(prog.FuncList), prog.NumInstrs())
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "facadec: %v\n", err)
	os.Exit(1)
}
