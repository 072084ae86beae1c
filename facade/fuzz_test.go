package facade

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/offheap"
)

// Randomized semantic-equivalence testing: generate random FJ programs
// over a fixed data-class schema — object creation, field traffic, array
// traffic, virtual calls, casts, instanceof, nested loops, iteration
// markers, §3.5 bulk conversion from columns (Sys.fillNew) — run them as P
// and as P', and require identical output. This is the transform's
// strongest correctness evidence beyond the hand-written corpus: every
// generated statement exercises some row of Table 1.

// progGen builds a random but well-typed Main.main body.
type progGen struct {
	rng  *rand.Rand
	sb   strings.Builder
	nVar int
	// live variables by kind
	ints    []string
	longs   []string
	doubles []string
	nodes   []string // type Node
	leaves  []string // type Leaf extends Node
	arrs    []string // type int[]
	objs    []string // type Object
	depth   int
}

const fuzzSchema = `
class Node {
    int key;
    long tag;
    Node link;
    Node(int key) { this.key = key; this.tag = 7L; }
    int weight() { return this.key * 2; }
    int kind() { return 1; }
}
class Leaf extends Node {
    double extra;
    Leaf(int key) { this.key = key; this.extra = 0.5; }
    int weight() { return this.key * 3; }
    int kind() { return 2; }
}
class Cell {
    int n;
    double w;
}
`

// fuzzData is the data-class set every transform of a generated program
// uses.
var fuzzData = []string{"Node", "Leaf", "Cell", "Main"}

func (g *progGen) fresh(prefix string) string {
	g.nVar++
	return fmt.Sprintf("%s%d", prefix, g.nVar)
}

func (g *progGen) pick(list []string) string {
	return list[g.rng.Intn(len(list))]
}

func (g *progGen) intExpr() string {
	switch g.rng.Intn(6) {
	case 0:
		return fmt.Sprint(g.rng.Intn(100))
	case 1:
		return g.pick(g.ints)
	case 2:
		return fmt.Sprintf("(%s + %s)", g.pick(g.ints), g.pick(g.ints))
	case 3:
		return fmt.Sprintf("(%s * %d)", g.pick(g.ints), 1+g.rng.Intn(5))
	case 4:
		if len(g.nodes) > 0 {
			return fmt.Sprintf("%s.weight()", g.pick(g.nodes))
		}
		return g.pick(g.ints)
	default:
		if len(g.nodes) > 0 {
			return fmt.Sprintf("%s.key", g.pick(g.nodes))
		}
		return g.pick(g.ints)
	}
}

func (g *progGen) stmt() {
	switch g.rng.Intn(13) {
	case 0: // new int local
		v := g.fresh("i")
		fmt.Fprintf(&g.sb, "int %s = %s;\n", v, g.intExpr())
		g.ints = append(g.ints, v)
	case 1: // new Node or Leaf
		v := g.fresh("n")
		if g.rng.Intn(2) == 0 {
			fmt.Fprintf(&g.sb, "Node %s = new Node(%s);\n", v, g.intExpr())
			g.nodes = append(g.nodes, v)
		} else {
			fmt.Fprintf(&g.sb, "Node %s = new Leaf(%s);\n", v, g.intExpr())
			g.nodes = append(g.nodes, v)
		}
	case 2: // field write
		if len(g.nodes) > 0 {
			fmt.Fprintf(&g.sb, "%s.key = %s;\n", g.pick(g.nodes), g.intExpr())
		}
	case 3: // link write + read
		if len(g.nodes) > 1 {
			a, b := g.pick(g.nodes), g.pick(g.nodes)
			fmt.Fprintf(&g.sb, "%s.link = %s;\n", a, b)
			fmt.Fprintf(&g.sb, "if (%s.link != null) { sum = sum + %s.link.key; }\n", a, a)
		}
	case 4: // array create
		v := g.fresh("a")
		fmt.Fprintf(&g.sb, "int[] %s = new int[%d];\n", v, 1+g.rng.Intn(8))
		g.arrs = append(g.arrs, v)
	case 5: // array write/read with safe index
		if len(g.arrs) > 0 {
			a := g.pick(g.arrs)
			idx := g.rng.Intn(8)
			fmt.Fprintf(&g.sb, "%s[%d %% %s.length] = %s;\n", a, idx, a, g.intExpr())
			fmt.Fprintf(&g.sb, "sum = sum + %s[%d %% %s.length];\n", a, idx, a)
		}
	case 6: // accumulate
		fmt.Fprintf(&g.sb, "sum = sum + %s;\n", g.intExpr())
	case 7: // loop — variables declared inside go out of scope at the brace
		if g.depth < 2 {
			g.depth++
			saveI, saveL, saveD := len(g.ints), len(g.longs), len(g.doubles)
			saveN, saveLf, saveA, saveO := len(g.nodes), len(g.leaves), len(g.arrs), len(g.objs)
			v := g.fresh("k")
			fmt.Fprintf(&g.sb, "for (int %s = 0; %s < %d; %s = %s + 1) {\n", v, v, 2+g.rng.Intn(5), v, v)
			g.ints = append(g.ints, v)
			for i := 0; i < 1+g.rng.Intn(3); i++ {
				g.stmt()
			}
			fmt.Fprintf(&g.sb, "}\n")
			g.ints = g.ints[:saveI]
			g.longs = g.longs[:saveL]
			g.doubles = g.doubles[:saveD]
			g.nodes = g.nodes[:saveN]
			g.leaves = g.leaves[:saveLf]
			g.arrs = g.arrs[:saveA]
			g.objs = g.objs[:saveO]
			g.depth--
		}
	case 8: // instanceof + cast via Object
		if len(g.nodes) > 0 {
			n := g.pick(g.nodes)
			fmt.Fprintf(&g.sb, "{ Object o = %s;\n", n)
			fmt.Fprintf(&g.sb, "  if (o instanceof Leaf) { Leaf lf = (Leaf) o; sum = sum + lf.kind(); }\n")
			fmt.Fprintf(&g.sb, "  if (o instanceof Node) { sum = sum + ((Node) o).kind(); } }\n")
		}
	case 9: // virtual dispatch accumulation
		if len(g.nodes) > 0 {
			fmt.Fprintf(&g.sb, "sum = sum + %s.kind() * 10;\n", g.pick(g.nodes))
		}
	case 10: // long/double mix
		if len(g.nodes) > 0 {
			n := g.pick(g.nodes)
			fmt.Fprintf(&g.sb, "%s.tag = %s.tag + %d;\n", n, n, g.rng.Intn(9))
			fmt.Fprintf(&g.sb, "sum = sum + (int) %s.tag;\n", n)
		}
	case 11: // iteration-scoped churn
		if g.depth == 0 {
			fmt.Fprintf(&g.sb, "Sys.iterStart();\n")
			fmt.Fprintf(&g.sb, "for (int z = 0; z < %d; z = z + 1) { Node tz = new Node(z); sum = sum + tz.weight(); }\n", 5+g.rng.Intn(30))
			fmt.Fprintf(&g.sb, "Sys.iterEnd();\n")
		}
	case 12: // bulk conversion of generated columns, then read back
		cols := 1 + g.rng.Intn(12)
		from := g.rng.Intn(cols)
		n := g.rng.Intn(cols - from + 1)
		cx, cw, cs, q := g.fresh("cx"), g.fresh("cw"), g.fresh("cs"), g.fresh("q")
		fmt.Fprintf(&g.sb, "{ int[] %s = new int[%d]; double[] %s = new double[%d];\n", cx, cols, cw, cols)
		fmt.Fprintf(&g.sb, "  for (int %s = 0; %s < %d; %s = %s + 1) { %s[%s] = %s + %s; %s[%s] = 0.25 * %s - %d.5; }\n",
			q, q, cols, q, q, cx, q, g.intExpr(), q, cw, q, q, g.rng.Intn(10))
		fmt.Fprintf(&g.sb, "  Cell[] %s = new Cell[%d];\n", cs, n)
		fmt.Fprintf(&g.sb, "  Sys.fillNew(%s, %d, %s, %s);\n", cs, from, cx, cw)
		fmt.Fprintf(&g.sb, "  for (int %s = 0; %s < %s.length; %s = %s + 1) { sum = sum + %s[%s].n + (int) (%s[%s].w * 4.0); } }\n",
			q, q, cs, q, q, cs, q, cs, q)
	}
}

func (g *progGen) generate(nStmts int) string {
	g.sb.WriteString(fuzzSchema)
	g.sb.WriteString("class Main {\n  static void main() {\n    int sum = 0;\n")
	g.ints = []string{"sum"}
	for i := 0; i < nStmts; i++ {
		g.stmt()
	}
	g.sb.WriteString("    Sys.println(sum);\n")
	// Also print a digest of every live node.
	for _, n := range g.nodes {
		fmt.Fprintf(&g.sb, "    Sys.println(%s.key * 1000 + %s.kind());\n", n, n)
	}
	g.sb.WriteString("  }\n}\n")
	return g.sb.String()
}

func TestRandomProgramEquivalence(t *testing.T) {
	const programs = 60
	for seed := 0; seed < programs; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			g := &progGen{rng: rand.New(rand.NewSource(int64(seed)))}
			src := g.generate(30)
			prog, err := Compile(map[string]string{"fuzz.fj": src})
			if err != nil {
				t.Fatalf("generated program does not compile: %v\n%s", err, src)
			}
			// Compiler-bug oracle: anything the type checker accepts must
			// pass the IR verifier, before and after the transform.
			if err := analysis.VerifyProgram(prog); err != nil {
				t.Fatalf("P fails IR verification (compiler bug): %v\n%s", err, src)
			}
			resP, err := Run(prog, WithHeapSize(16<<20))
			if err != nil {
				t.Fatalf("P: %v\n%s", err, src)
			}
			outP := resP.Output()
			resP.Close()
			p2, err := Transform(prog, TransformOptions{DataClasses: fuzzData})
			if err != nil {
				t.Fatalf("transform: %v\n%s", err, src)
			}
			if err := analysis.VerifyProgram(p2); err != nil {
				t.Fatalf("P' fails IR verification (transform bug): %v\n%s", err, src)
			}
			if fs := analysis.LintProgram(p2); len(fs) > 0 {
				t.Fatalf("P' fails facade-safety lint: %s\n%s", fs[0], src)
			}
			resP2, err := Run(p2, WithHeapSize(16<<20))
			if err != nil {
				t.Fatalf("P': %v\n%s", err, src)
			}
			outP2, st2 := resP2.Output(), resP2.VM.RT.Stats()
			resP2.Close()
			if outP != outP2 {
				t.Fatalf("divergence (seed %d):\nP:  %q\nP': %q\nprogram:\n%s", seed, outP, outP2, src)
			}
			// Inliner oracle: the same source through Build (inline, then
			// transform) must verify, lint clean and behave exactly like
			// the un-inlined pair — same output, and for P' the same
			// records in the same native footprint.
			ip, ip2, err := Build(map[string]string{"fuzz.fj": src}, fuzzData)
			if err != nil {
				t.Fatalf("build: %v\n%s", err, src)
			}
			for _, q := range []*ir.Program{ip, ip2} {
				if err := analysis.VerifyProgram(q); err != nil {
					t.Fatalf("inlined program fails IR verification (inliner bug): %v\n%s", err, src)
				}
				if fs := analysis.LintProgram(q); len(fs) > 0 {
					t.Fatalf("inlined program fails facade-safety lint: %s\n%s", fs[0], src)
				}
				res, err := Run(q, WithHeapSize(16<<20))
				if err != nil {
					t.Fatalf("inlined (transformed=%v): %v\n%s", q.Transformed, err, src)
				}
				out := res.Output()
				var st offheap.Stats
				if q.Transformed {
					st = res.VM.RT.Stats()
				}
				res.Close()
				if out != outP {
					t.Fatalf("inlining divergence (seed %d, transformed=%v):\nP:       %q\ninlined: %q\nprogram:\n%s",
						seed, q.Transformed, outP, out, src)
				}
				if q.Transformed && (st.Records != st2.Records || st.PeakBytes != st2.PeakBytes) {
					t.Fatalf("inlining changed P' native work (seed %d): records %d -> %d, peak bytes %d -> %d\n%s",
						seed, st2.Records, st.Records, st2.PeakBytes, st.PeakBytes, src)
				}
			}
			// Tiered leg: P' under a watermark tight enough that pages spill
			// to disk mid-run. The disk tier is pure mechanism — residency
			// moves, output must not.
			resPT, err := Run(p2, WithHeapSize(16<<20), WithTiering(t.TempDir(), 2))
			if err != nil {
				t.Fatalf("P' (tiered): %v\n%s", err, src)
			}
			outPT := resPT.Output()
			resPT.Close()
			if outP != outPT {
				t.Fatalf("tiering divergence (seed %d):\nP:        %q\nP' tiered: %q\nprogram:\n%s",
					seed, outP, outPT, src)
			}
		})
	}
}
