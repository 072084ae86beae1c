package facade

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/obs"
)

const vetSrc = `
// facadec: data=Item,Main
class Item {
    int v;
    Item(int v) { this.v = v; }
}
class Main {
    static void main() {
        Item a = new Item(41);
        Sys.println(a.v + 1);
    }
}
`

func TestWithVerifyPublishesAnalysisStats(t *testing.T) {
	prog, err := Compile(map[string]string{"v.fj": vetSrc})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Transform(prog, TransformOptions{DataClasses: []string{"Item", "Main"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p2, WithHeapSize(8<<20), WithVerify())
	if err != nil {
		t.Fatalf("run with verify: %v", err)
	}
	defer res.Close()
	if res.Output() != "42\n" {
		t.Fatalf("output %q", res.Output())
	}
	st := res.Stats()
	if st.Counters[obs.CtrVerifyFuncs] == 0 {
		t.Fatalf("%s not published", obs.CtrVerifyFuncs)
	}
	if n := st.Counters[obs.CtrLintFindings]; n != 0 {
		t.Fatalf("unexpected lint findings: %d", n)
	}
	if n := st.Counters[obs.CtrDCERemoved]; n == 0 || n != int64(p2.DCERemoved) {
		t.Fatalf("%s = %d, program's DCERemoved %d (DCE is on by default)", obs.CtrDCERemoved, n, p2.DCERemoved)
	}
}

func TestWithVerifyFailsOnSeededViolation(t *testing.T) {
	prog, err := Compile(map[string]string{"v.fj": vetSrc})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Transform(prog, TransformOptions{DataClasses: []string{"Item", "Main"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := analysis.SeedViolation(p2, "use-before-def"); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(p2, WithHeapSize(8<<20), WithVerify()); err == nil {
		t.Fatal("run with verify accepted a seeded use-before-def")
	} else if !strings.Contains(err.Error(), "facade lint") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestDataClassesDirective(t *testing.T) {
	if got := DataClassesDirective(vetSrc); len(got) != 2 || got[0] != "Item" || got[1] != "Main" {
		t.Fatalf("directive parse: %v", got)
	}
	if got := DataClassesDirective("class A {}"); got != nil {
		t.Fatalf("no-directive parse: %v", got)
	}
	if got := DataClassesDirective("//facadec: data= X , Y \n"); len(got) != 2 || got[0] != "X" || got[1] != "Y" {
		t.Fatalf("spacing parse: %v", got)
	}
}
