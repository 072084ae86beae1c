package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	pathpkg "path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestArchitecture holds the design in place where a compiler would not:
// each subtest names a mechanism that was made one, and fails when a second
// copy of it comes back. The queries read the syntax trees of the
// repository's Go files — identifiers, selectors, calls, struct fields,
// imports and the contents of string literals, never comments — and each
// names its scope: the non-test files unless it says otherwise.
func TestArchitecture(t *testing.T) {
	t.Run("engine recovery books stay deleted", func(t *testing.T) {
		// Recovery is counted once, in registry counters: the cluster's for
		// GPS and Hyracks, the VM's for GraphChi. k-means runs on the one
		// checkpointed superstep loop.
		for _, f := range parseTree(t, "internal", false) {
			ast.Inspect(f.ast, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if n.Name == "runKMeans" || n.Name == "RetainedCheckpointsHW" {
						t.Errorf("%s: %s: an engine keeps a second recovery book or a second k-means loop again", f.pos(n), n.Name)
					}
				case *ast.TypeSpec:
					if _, ok := n.Type.(*ast.StructType); ok && n.Name.Name == "Recovery" {
						t.Errorf("%s: type Recovery struct: an engine keeps a second recovery book again", f.pos(n))
					}
				}
				return true
			})
		}
	})

	t.Run("one memory book", func(t *testing.T) {
		// A run's GC time, collection counts and peaks are obs.MemoryOf over
		// the registry snapshots of every VM it used: no cluster-side stats
		// struct, no second byte counter beside the network's NetStats, and
		// no reader of the peak gauges but the fold.
		for _, f := range parseTree(t, ".", false) {
			inCluster := filepath.Dir(f.path) == filepath.Join("internal", "cluster")
			inObs := filepath.Dir(f.path) == filepath.Join("internal", "obs")
			ast.Inspect(f.ast, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					if inCluster && n.Name.Name == "Stats" {
						t.Errorf("%s: cluster.Stats is back: the cluster's memory book is its Report", f.pos(n))
					}
				case *ast.FuncDecl:
					if inCluster && n.Name.Name == "BytesSent" && receiver(n) == "Network" {
						t.Errorf("%s: Network.BytesSent is back: bytes sent are NetStats.BytesSent", f.pos(n))
					}
				case *ast.BinaryExpr:
					if !inObs && n.Op == token.ADD && isPeakGauge(n.X) && stringLit(n.Y) == ".hw" {
						t.Errorf("%s: a peak gauge's .hw key is read outside obs.MemoryOf", f.pos(n))
					}
				case *ast.BasicLit:
					if s := stringLit(n); !inObs && (s == "heap.used_bytes.hw" || s == "offheap.bytes_in_use.hw") {
						t.Errorf("%s: %s is read outside obs.MemoryOf", f.pos(n), s)
					}
				}
				return true
			})
		}
	})

	t.Run("one region source", func(t *testing.T) {
		// Heap arenas with their mark bitmaps and every page body, standard
		// or oversize, come from internal/region, with its one poison hook
		// and one leak probe: nothing else maps memory (tests included), the
		// heap and the page store make no byte slice of their own, and a
		// spill returns its body to the region source instead of keeping
		// frames.
		offheap, heap := filepath.Join("internal", "offheap"), filepath.Join("internal", "heap")
		for _, f := range parseTree(t, ".", true) {
			dir := filepath.Dir(f.path)
			inRegion := dir == filepath.Join("internal", "region")
			store := !f.test && (dir == offheap || dir == heap)
			tier := f.path == filepath.Join(offheap, "tier.go")
			ast.Inspect(f.ast, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if !inRegion && isIdent(n.X, "syscall") && (n.Sel.Name == "Mmap" || n.Sel.Name == "Munmap") {
						t.Errorf("%s: syscall.%s: memory is mapped outside internal/region", f.pos(n), n.Sel.Name)
					}
				case *ast.Ident:
					if store && (n.Name == "PoisonFrames" || n.Name == "LiveArenas") {
						t.Errorf("%s: %s: a second poison hook or leak probe bypasses internal/region", f.pos(n), n.Name)
					}
					if tier && n.Name == "frames" {
						t.Errorf("%s: frames: the tier keeps frames again", f.pos(n))
					}
				case *ast.CallExpr:
					if store && isMakeBytes(n) {
						t.Errorf("%s: make([]byte, …): a body bypasses internal/region", f.pos(n))
					}
				}
				return true
			})
		}
	})

	t.Run("setup is proportional to use", func(t *testing.T) {
		// Per-job setup costs what the job uses. The VM's one lock pool is
		// built in vm.New and grows a lock at a time; ResetForReuse keeps it
		// (and refuses it while a lock is in use), so nothing else builds or
		// replaces one. The obs event ring grows as events arrive instead of
		// reserving its capacity up front.
		vmDir, obsDir := filepath.Join("internal", "vm"), filepath.Join("internal", "obs")
		built := 0
		for _, f := range parseTree(t, ".", false) {
			dir := filepath.Dir(f.path)
			for _, d := range f.ast.Decls {
				fn, _ := d.(*ast.FuncDecl)
				inNew := dir == vmDir && fn != nil && fn.Name.Name == "New" && receiver(fn) == ""
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CallExpr:
						if calleeName(n) == "NewLockPool" {
							if !inNew {
								t.Errorf("%s: NewLockPool: a lock pool is built outside vm.New", f.pos(n))
							}
							built++
						}
						if dir == obsDir && isMakeOf(n, "Event") && len(n.Args) == 3 && isZero(n.Args[1]) {
							t.Errorf("%s: make([]Event, 0, …): internal/obs preallocates event storage again", f.pos(n))
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "Locks" {
								t.Errorf("%s: a lock pool is replaced after vm.New built it", f.pos(n))
							}
						}
					}
					return true
				})
			}
		}
		if built != 1 {
			t.Errorf("vm.New builds %d lock pools, want 1", built)
		}
	})

	t.Run("one record path", func(t *testing.T) {
		// A page record resolves one way on every store: Bytes, and the
		// fault path when the page is on disk. Spills wait for a stopped
		// world, so the per-operation pin, a second resolver, the
		// interpreter's tiered arm and the evictor's handshake flag stay
		// deleted.
		vmDir, offheapDir := filepath.Join("internal", "vm"), filepath.Join("internal", "offheap")
		for _, f := range parseTree(t, "internal", false) {
			dir := filepath.Dir(f.path)
			ast.Inspect(f.ast, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if dir == vmDir && n.Sel.Name == "Pin" {
						t.Errorf("%s: .Pin: internal/vm pins records again", f.pos(n))
					}
				case *ast.CallExpr:
					if dir == vmDir && strings.HasSuffix(calleeName(n), "Resolve") {
						t.Errorf("%s: %s(: internal/vm takes a second record path again", f.pos(n), calleeName(n))
					}
				case *ast.FuncDecl:
					if dir == vmDir && strings.HasSuffix(n.Name.Name, "Resolve") {
						t.Errorf("%s: func %s: internal/vm takes a second record path again", f.pos(n), n.Name.Name)
					}
				case *ast.Ident:
					if dir == vmDir && (strings.Contains(n.Name, "Unpin") || n.Name == "tiered") {
						t.Errorf("%s: %s: internal/vm pins records or takes a second record path again", f.pos(n), n.Name)
					}
					if dir == offheapDir && strings.Contains(n.Name, "evicting") {
						t.Errorf("%s: %s: internal/offheap carries the pin/evict handshake again", f.pos(n), n.Name)
					}
				}
				return true
			})
		}
	})

	t.Run("one fault path", func(t *testing.T) {
		// A failed promotion is an error every record resolution returns,
		// never a panic for the call boundary to recover: no recover() in
		// the interpreter, no TierFault type anywhere, no panic in the
		// record resolution or the tier.
		vmDir := filepath.Join("internal", "vm")
		noPanic := map[string]bool{
			filepath.Join("internal", "offheap", "record.go"): true,
			filepath.Join("internal", "offheap", "tier.go"):   true,
		}
		for _, f := range parseTree(t, ".", false) {
			inVM := filepath.Dir(f.path) == vmDir
			ast.Inspect(f.ast, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if inVM && isIdent(n.Fun, "recover") {
						t.Errorf("%s: recover(): internal/vm recovers a panic again", f.pos(n))
					}
					if noPanic[f.path] && isIdent(n.Fun, "panic") {
						t.Errorf("%s: panic(: the record resolution or the tier panics again", f.pos(n))
					}
				case *ast.Ident:
					if strings.Contains(n.Name, "TierFault") {
						t.Errorf("%s: %s: a tier fault travels as a panic again", f.pos(n), n.Name)
					}
				}
				return true
			})
		}
	})

	t.Run("one monitor implementation", func(t *testing.T) {
		// Every synchronized block, on a heap object or a page record, locks
		// through the VM's one lock pool (offheap.LockPool, §3.4): the
		// per-object monitor table, its monitor type, the heap's lock-word
		// getter and setter and the page store's own pool stay deleted.
		deleted := map[string]bool{
			"monitorFor": true, "monEnter": true, "monExit": true,
			"monitors": true, "monMu": true, "nextMonID": true,
			"GetLock": true, "SetLock": true,
		}
		vmDir, offheapDir := filepath.Join("internal", "vm"), filepath.Join("internal", "offheap")
		for _, f := range parseTree(t, ".", false) {
			dir := filepath.Dir(f.path)
			ast.Inspect(f.ast, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if deleted[n.Name] {
						t.Errorf("%s: %s: a second monitor implementation is back", f.pos(n), n.Name)
					}
				case *ast.TypeSpec:
					if dir == vmDir && n.Name.Name == "monitor" {
						t.Errorf("%s: type monitor: the VM keeps per-object monitors again", f.pos(n))
					}
				case *ast.Field:
					for _, name := range n.Names {
						if dir == offheapDir && name.Name == "Locks" {
							t.Errorf("%s: field Locks: the page store keeps a lock pool of its own again", f.pos(n))
						}
					}
				}
				return true
			})
		}
	})

	t.Run("the server stays split", func(t *testing.T) {
		// internal/server is split by concern (admission, scheduler, pool,
		// journal, jobstore, protocol, http, client); no program file of it
		// grows back past 500 lines.
		for _, f := range parseDir(t, filepath.Join("internal", "server"), false) {
			if n := f.fset.File(f.ast.FileStart).LineCount(); n > 500 {
				t.Errorf("%s: %d lines, want at most 500: internal/server grows back into one file", f.path, n)
			}
		}
	})

	t.Run("deleted knobs stay deleted", func(t *testing.T) {
		// Each of these options, config fields and instruments, and the page
		// store's second constructor, had no caller but tests, or only its
		// default in use; nothing names them again, tests and the benchmark
		// included. The deleted repro flags and the
		// daemon's submit key stay out of program code (tests feed the key
		// to the decoder as an older client would).
		forbidNames(t, parseTree(t, ".", true), regexp.MustCompile(`\b(Devirtualize|NativeRT|YoungSize|BytesPerEdge|seedSet|WithObserver|WithOutput|WithVerify|SetEventSink|CtrVerifyFuncs|CtrLintFindings|TenantBudgets|RetryBase|RetryMax|MaxJobHistory|TierLowPages|CheckpointInterval|RecvTimeout|SampleEvery|NewRuntimeWith)\b`),
			"a deleted option or config field is back")
		program := parseTree(t, ".", false)
		forbidLiterals(t, program, regexp.MustCompile(`^(tier-low|ckpt)$|"(tier-low|ckpt)"`), "a deleted repro flag is back")
		forbidNames(t, program, regexp.MustCompile(`tier_low_pages`), "a deleted submit key is back")
	})

	t.Run("one iteration-region machine", func(t *testing.T) {
		// canIn/canOut are the fields of taint.go's region type; a second
		// struct declaring them is a second copy of the machine.
		declared := 0
		for _, f := range parseTree(t, filepath.Join("internal", "analysis"), false) {
			ast.Inspect(f.ast, func(n ast.Node) bool {
				if st, ok := n.(*ast.StructType); ok {
					for _, field := range st.Fields.List {
						for _, name := range field.Names {
							if name.Name == "canIn" && isIdent(field.Type, "bool") {
								declared++
							}
						}
					}
				}
				return true
			})
		}
		if declared != 1 {
			t.Errorf("canIn is declared as a bool struct field %d times under internal/analysis, want exactly 1", declared)
		}
	})

	t.Run("one object-access path", func(t *testing.T) {
		// Both halves of the interpreter resolve an object to bytes once and
		// share loadSlot/storeSlot; the per-access helpers, the header
		// re-read and the process-global iteration lock stay deleted, and
		// ir.Instr carries no boxed link cache.
		forbidNames(t, parseTree(t, "internal", false), regexp.MustCompile(`\b(loadField|storeField|loadElem|storeElem|FieldBase|iterIDMu)\b`),
			"a deleted object-access helper is back")
		f := parseFile(t, filepath.Join("internal", "ir", "ir.go"))
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				for _, field := range st.Fields.List {
					if isIdent(field.Type, "any") {
						t.Errorf("%s: internal/ir declares a field of type any", f.pos(field))
					}
				}
			}
			return true
		})
	})

	t.Run("one executor", func(t *testing.T) {
		// The interpreter runs the execution form and nothing else: no
		// handler table beside the switch, no linker result in ir.Instr, and
		// no walk over Blocks/Instrs in internal/vm outside the lowering.
		forbidNames(t, parseTree(t, ".", true), regexp.MustCompile(`\bopHandlers\b`), "the opHandlers table is back")
		forbidNames(t, []parsedFile{parseFile(t, filepath.Join("internal", "ir", "ir.go"))}, regexp.MustCompile(`\bCallee\b`),
			"internal/ir carries a linker-written callee again")
		for _, f := range parseDir(t, filepath.Join("internal", "vm"), false) {
			if filepath.Base(f.path) == "lower.go" {
				continue
			}
			ast.Inspect(f.ast, func(n ast.Node) bool {
				var x ast.Expr
				switch n := n.(type) {
				case *ast.IndexExpr:
					x = n.X
				case *ast.SliceExpr:
					x = n.X
				}
				if x != nil && (selects(x, "Blocks") || selects(x, "Instrs")) {
					t.Errorf("%s: internal/vm walks the IR outside lower.go", f.pos(n))
				}
				return true
			})
		}
	})

	t.Run("one load path", func(t *testing.T) {
		// GraphChi loads and extracts on its worker pool (buildRange,
		// extractRange); the serial main-thread boundary calls stay deleted.
		forbidLiterals(t, parseTree(t, filepath.Join("internal", "graphchi"), false), regexp.MustCompile(`^(build|initValues|extract)$|"(build|initValues|extract)"`),
			"a serial GraphChi load or extract boundary call is back")
	})

	t.Run("bulk conversion at the boundary", func(t *testing.T) {
		// GraphChi builds a vertex's in-edges with one Sys.fillNew from the
		// shard's columns; the interpreted per-edge conversion, Go or FJ,
		// stays deleted.
		forbidNames(t, parseTree(t, filepath.Join("internal", "graphchi"), true), regexp.MustCompile(`addInEdge`),
			"GraphChi converts in-edges one interpreted call at a time again")
	})

	t.Run("one pass per encode", func(t *testing.T) {
		// EncodeDeterministic walks the value once; the json.Marshal +
		// decode + re-walk round trip lives on only as the fuzz oracle in
		// internal/obs's tests.
		files := parseDir(t, filepath.Join("internal", "obs"), false)
		forbidNames(t, files, regexp.MustCompile(`UseNumber`), "internal/obs decodes JSON again")
		for _, f := range files {
			ast.Inspect(f.ast, func(n ast.Node) bool {
				if m := f.member(n, "encoding/json"); m == "NewDecoder" || strings.HasPrefix(m, "Unmarshal") {
					t.Errorf("%s: json.%s: internal/obs decodes JSON again", f.pos(n), m)
				}
				return true
			})
		}
	})

	t.Run("array types are fixed at link", func(t *testing.T) {
		// The VM's linker builds one immutable array type table per program
		// and writes each array op's index into its slot; nothing registers
		// an array type after vm.New, so the lazy registries, their lock and
		// the heap's grow-on-demand array counts stay deleted.
		forbidNames(t, parseTree(t, "internal", true), regexp.MustCompile(`\b(ArrayTypeIndex|ArrayElemType|arrMu|arrCounts)\b`),
			"an array type is registered after link again")
		f := parseFile(t, filepath.Join("internal", "lang", "arraytypes.go"))
		for _, imp := range f.ast.Imports {
			if p := stringLit(imp.Path); p == "sync" || p == "sync/atomic" {
				t.Errorf("%s: import %q: the array type table takes a lock or publishes atomically again", f.pos(imp), p)
			}
		}
	})

	t.Run("DCE is one sweep", func(t *testing.T) {
		// Each DCE round solves liveness once and walks every block backward
		// once, dropping dead code and folding moves on the same live set;
		// the two-pass fixpoint it replaced lives on only as the oracle in
		// internal/analysis/dce_oracle_test.go, under other names.
		forbidNames(t, parseTree(t, filepath.Join("internal", "analysis"), true), regexp.MustCompile(`\b(deadPass|coalescePass|LiveAfter)\b`),
			"DCE runs a second pass or reads precomputed live-after sets again")
		if n := livenessSolves(parseFile(t, filepath.Join("internal", "analysis", "dce.go"))); n > 1 {
			t.Errorf("internal/analysis/dce.go solves liveness %d times, want at most 1", n)
		}
	})

	t.Run("a compile does each thing once", func(t *testing.T) {
		// The stdlib is lexed once per process and parsed from those tokens
		// (internal/stdlib); the linter and the lifetime pass take the CFG
		// and live-out sets DCE's last sweep handed forward, and solve
		// liveness only in the one fallback, flowFacts.live
		// (internal/analysis/facts.go).
		for _, f := range parseDir(t, filepath.Join("internal", "stdlib"), false) {
			ast.Inspect(f.ast, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && f.member(call.Fun, "repro/internal/lang") == "Parse" {
					t.Errorf("%s: lang.Parse(: internal/stdlib lexes source text through lang.Parse again", f.pos(n))
				}
				return true
			})
		}
		for _, name := range []string{"lifetime.go", "lint.go"} {
			f := parseFile(t, filepath.Join("internal", "analysis", name))
			if n := livenessSolves(f); n > 0 {
				t.Errorf("%s solves liveness %d times outside flowFacts.live, want 0", f.path, n)
			}
		}
	})

	t.Run("a compile's scratch lives in one call", func(t *testing.T) {
		// Lowering and the transform emit into buffers one call owns, and a
		// dataflow pass carves its sets from a scratch it owns: the daemon
		// compiles jobs concurrently, and compile_cold's peak_mb counts what
		// a compile leaves reachable. No pool, and no tuning of Go's
		// collector outside the benchmark.
		for _, pkg := range []string{"lang", "lower", "core", "analysis"} {
			for _, f := range parseTree(t, filepath.Join("internal", pkg), false) {
				ast.Inspect(f.ast, func(n ast.Node) bool {
					if f.member(n, "sync") == "Pool" {
						t.Errorf("%s: sync.Pool: a compiler package keeps scratch in a pool", f.pos(n))
					}
					return true
				})
			}
		}
		for _, f := range parseTree(t, ".", false) {
			if strings.HasPrefix(f.path, "benchmark"+string(filepath.Separator)) {
				continue
			}
			ast.Inspect(f.ast, func(n ast.Node) bool {
				if m := f.member(n, "runtime/debug"); m == "SetGCPercent" || m == "SetMemoryLimit" {
					t.Errorf("%s: debug.%s: a program file tunes Go's collector", f.pos(n), m)
				}
				return true
			})
		}
	})

	t.Run("collections visit only live objects", func(t *testing.T) {
		// A full collection's forwarding, reference update and slide iterate
		// the mark bitmap's set bits, and a failed one writes nothing: the
		// walks over every old-generation object, the live-nursery list and
		// the pass that undid forwarding words stay deleted.
		f := parseFile(t, filepath.Join("internal", "heap", "gc.go"))
		forbidNames(t, []parsedFile{f}, regexp.MustCompile(`clearMarks|liveYoung`), "a collection walks dead objects again")
		ast.Inspect(f.ast, func(n ast.Node) bool {
			loop, ok := n.(*ast.ForStmt)
			if !ok {
				return true
			}
			init, ok := loop.Init.(*ast.AssignStmt)
			cond, _ := loop.Cond.(*ast.BinaryExpr)
			if ok && len(init.Rhs) == 1 && selects(init.Rhs[0], "oldBase") && cond != nil && selects(cond.Y, "oldPos") {
				t.Errorf("%s: a loop from oldBase to oldPos: a collection walks every old object again", f.pos(n))
			}
			return true
		})
	})

	t.Run("placement stays off the run path", func(t *testing.T) {
		// Lifetime classes are reported by facadec vet -lifetimes and feed
		// later analyses; no runtime places objects by them. Pretenuring was
		// measured slower (docs/PERFORMANCE.md).
		re := regexp.MustCompile(`\b(WithLifetimes|SetLifetimes|LifetimeConfig|CtrLifetimePretenured|SiteLifetimes)\b`)
		for _, root := range []string{"facade", filepath.Join("internal", "vm"), filepath.Join("internal", "heap"), "cmd"} {
			forbidNames(t, parseTree(t, root, false), re, "lifetime-guided placement is back on the run path")
		}
	})
}

// parsedFile is one parsed Go file and the path it was read from, relative
// to the repository root.
type parsedFile struct {
	path string
	test bool // a _test.go file
	fset *token.FileSet
	ast  *ast.File
}

func (f parsedFile) pos(n ast.Node) token.Position { return f.fset.Position(n.Pos()) }

// tree is every Go file of the repository, test files included, parsed
// once per test binary: the subtests pick their scope out of it.
var tree = sync.OnceValues(func() ([]parsedFile, error) {
	fset := token.NewFileSet()
	var files []parsedFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, parsedFile{path: path, test: strings.HasSuffix(name, "_test.go"), fset: fset, ast: f})
		return nil
	})
	return files, err
})

// parseTree returns the non-test Go files under root, and the test files
// too when tests is set, skipping testdata and hidden directories.
func parseTree(t *testing.T, root string, tests bool) []parsedFile {
	t.Helper()
	all, err := tree()
	if err != nil {
		t.Fatal(err)
	}
	var files []parsedFile
	for _, f := range all {
		if (tests || !f.test) && (root == "." || strings.HasPrefix(f.path, root+string(filepath.Separator))) {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		t.Fatalf("no Go file under %s", root)
	}
	return files
}

// parseDir returns the Go files directly in dir, as parseTree does.
func parseDir(t *testing.T, dir string, tests bool) []parsedFile {
	t.Helper()
	var files []parsedFile
	for _, f := range parseTree(t, dir, tests) {
		if filepath.Dir(f.path) == dir {
			files = append(files, f)
		}
	}
	return files
}

// parseFile returns the non-test Go file at path.
func parseFile(t *testing.T, path string) parsedFile {
	t.Helper()
	for _, f := range parseTree(t, filepath.Dir(path), false) {
		if f.path == path {
			return f
		}
	}
	t.Fatalf("no Go file %s", path)
	return parsedFile{}
}

// forbidNames fails t wherever re matches an identifier, or the contents of
// a string literal (import paths and struct tags included), in files: what
// a grep over the source would match, less the comments.
func forbidNames(t *testing.T, files []parsedFile, re *regexp.Regexp, why string) {
	t.Helper()
	forbid(t, files, re, true, why)
}

// forbidLiterals is forbidNames over string literals alone.
func forbidLiterals(t *testing.T, files []parsedFile, re *regexp.Regexp, why string) {
	t.Helper()
	forbid(t, files, re, false, why)
}

func forbid(t *testing.T, files []parsedFile, re *regexp.Regexp, idents bool, why string) {
	t.Helper()
	for _, f := range files {
		if f.path == "arch_test.go" { // this file names what it forbids
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			var text string
			switch n := n.(type) {
			case *ast.Ident:
				if !idents {
					return true
				}
				text = n.Name
			case *ast.BasicLit:
				text = stringLit(n)
			default:
				return true
			}
			if m := re.FindString(text); m != "" {
				t.Errorf("%s: %s: %s", f.pos(n), m, why)
			}
			return true
		})
	}
}

// member names what n selects from the package f imports from path, under
// whatever name f gives it: "Pool" for sync.Pool, "" for anything else.
func (f parsedFile) member(n ast.Node, path string) string {
	sel, ok := n.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	for _, imp := range f.ast.Imports {
		if stringLit(imp.Path) != path {
			continue
		}
		name := pathpkg.Base(path)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if isIdent(sel.X, name) {
			return sel.Sel.Name
		}
	}
	return ""
}

// livenessSolves counts the liveness solvers f calls or declares: every
// call or function whose name ends in liveness or Liveness.
func livenessSolves(f parsedFile) int {
	n := 0
	solver := func(name string) bool {
		return strings.HasSuffix(name, "liveness") || strings.HasSuffix(name, "Liveness")
	}
	ast.Inspect(f.ast, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.CallExpr:
			if solver(calleeName(node)) {
				n++
			}
		case *ast.FuncDecl:
			if solver(node.Name.Name) {
				n++
			}
		}
		return true
	})
	return n
}

// selects reports whether e is x.name for some x.
func selects(e ast.Expr, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == name
}

// receiver names the type of a method's receiver ("" for a function).
func receiver(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// isPeakGauge reports whether e names one of the gauges whose high-water
// marks make up a run's peak memory: GaugeHeapUsed or GaugeBytesInUse, by
// itself or qualified (obs.GaugeHeapUsed).
func isPeakGauge(e ast.Expr) bool {
	if sel, ok := e.(*ast.SelectorExpr); ok {
		e = sel.Sel
	}
	id, ok := e.(*ast.Ident)
	return ok && (id.Name == "GaugeHeapUsed" || id.Name == "GaugeBytesInUse")
}

// calleeName names the function a call calls: f for f(…) and x.f(…), ""
// for anything else.
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// isIdent reports whether e is the identifier name.
func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

// isZero reports whether e is the literal 0.
func isZero(e ast.Expr) bool {
	lit, ok := e.(*ast.BasicLit)
	return ok && lit.Kind == token.INT && lit.Value == "0"
}

// isMakeBytes reports whether call is make([]byte, …) or make([]uint8, …).
func isMakeBytes(call *ast.CallExpr) bool {
	return isMakeOf(call, "byte") || isMakeOf(call, "uint8")
}

// isMakeOf reports whether call is make([]elem, …).
func isMakeOf(call *ast.CallExpr, elem string) bool {
	if !isIdent(call.Fun, "make") || len(call.Args) == 0 {
		return false
	}
	arr, ok := call.Args[0].(*ast.ArrayType)
	return ok && arr.Len == nil && isIdent(arr.Elt, elem)
}

// stringLit is the value of a string literal ("" for anything else).
func stringLit(e ast.Expr) string {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return ""
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return ""
	}
	return s
}
