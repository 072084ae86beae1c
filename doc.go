// Package repro is a from-scratch Go reproduction of "FACADE: A Compiler
// and Runtime for (Almost) Object-Bounded Big Data Applications" (Nguyen,
// Wang, Bu, Fang, Hu, Xu — ASPLOS 2015).
//
// The repository contains the paper's contribution — the FACADE compiler
// transform (internal/core) and its off-heap page runtime
// (internal/offheap) — together with every substrate the evaluation
// depends on: a small managed object language and VM with a generational
// garbage collector (internal/lang, internal/ir, internal/lower,
// internal/vm, internal/heap), and reimplementations of the three
// evaluated frameworks, GraphChi (internal/graphchi), Hyracks
// (internal/hyracks) on a simulated shared-nothing cluster
// (internal/cluster, internal/dfs), and GPS (internal/gps).
//
// The public API lives in the facade package: Compile, Transform, and Run
// with functional options (WithHeapSize, WithEntry, WithRandSeed,
// WithTiering); Result.Stats returns RunStats, the snapshot of everything
// a run measured in its per-VM registry (internal/obs) — counters, gauges,
// GC-pause histograms, and a bounded event stream — with typed views of the
// heap, page-store and interpreter counts, documented in
// docs/OBSERVABILITY.md.
//
// cmd/repro regenerates every table and figure of the paper's §4 (add
// -json for machine-readable run reports); cmd/facadec is the standalone
// compiler driver. bench_test.go in this directory hosts one benchmark per
// reproduced table/figure plus ablations. See DESIGN.md for the system
// inventory and EXPERIMENTS.md for paper-vs-measured results.
package repro
