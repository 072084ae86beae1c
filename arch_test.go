package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestArchitecture holds the design in place where a compiler would not:
// each subtest names a mechanism that was made one, and fails when a second
// copy of it comes back. The queries read the syntax trees of the
// repository's non-test Go files.
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

// parseTree parses every non-test Go file under root, and every test file
// too when tests is set, skipping testdata and hidden directories.
func parseTree(t *testing.T, root string, tests bool) []parsedFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []parsedFile
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		test := strings.HasSuffix(name, "_test.go")
		if !strings.HasSuffix(name, ".go") || test && !tests {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, parsedFile{path: path, test: test, fset: fset, ast: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatalf("no Go file under %s", root)
	}
	return files
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
