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

// isIdent reports whether e is the identifier name.
func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

// isMakeBytes reports whether call is make([]byte, …) or make([]uint8, …).
func isMakeBytes(call *ast.CallExpr) bool {
	if !isIdent(call.Fun, "make") || len(call.Args) == 0 {
		return false
	}
	arr, ok := call.Args[0].(*ast.ArrayType)
	return ok && arr.Len == nil && (isIdent(arr.Elt, "byte") || isIdent(arr.Elt, "uint8"))
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
