package core

import (
	"reflect"
	"testing"

	"repro/internal/ir"
	"repro/internal/lang"
)

const devirtSrc = `
class Base {
    int v;
    int poly() { return 1; }
    int mono() { return this.v; }
}
class Sub extends Base {
    int poly() { return 2; }
}
class Item {
    int w;
    int weight() { return this.w; }
}
class BigItem extends Item {
    int weight() { return this.w * 2; }
}
class Driver {
    Item it;
    int drive(Base b) {
        return b.poly() + b.mono() + this.it.weight();
    }
}
class Main { static void main() { } }
`

// TestDevirtualization pins the per-site static decision of §3.6 in one
// transformed program: a monomorphic data-receiver call draws its facade
// from the static type's receiver pool, an overridden one keeps the dynamic
// resolve — also when the receiver class (Item) and its overriding subclass
// are data only because §3.1 closure expansion pulled them in.
func TestDevirtualization(t *testing.T) {
	p := compile(t, devirtSrc)
	p2 := mustTransform(t, p, Options{DataClasses: []string{"Base", "Driver"}})
	f := p2.Funcs[ir.FuncKey("DriverFacade", "drive")]
	draw := map[string]string{} // called method -> how its receiver facade was drawn
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op != ir.OpResolve && in.Op != ir.OpRecvPool {
				continue
			}
			how := "resolve"
			if in.Op == ir.OpRecvPool {
				how = "recvpool " + in.Cls.Name
			}
			for _, call := range b.Instrs[i+1:] {
				if call.Op == ir.OpCall && call.A == in.Dst {
					draw[call.M.Name] = how
					break
				}
			}
		}
	}
	want := map[string]string{"mono": "recvpool BaseFacade", "poly": "resolve", "weight": "resolve"}
	if !reflect.DeepEqual(draw, want) {
		t.Fatalf("receiver draws %v, want %v", draw, want)
	}
}

func TestMonomorphicAnalysis(t *testing.T) {
	p := compile(t, devirtSrc)
	tr := &transformer{p: p, opts: Options{DataClasses: []string{"Base"}}, data: map[string]bool{}, dataIf: map[string]bool{}}
	if err := tr.computeDataSet(); err != nil {
		t.Fatal(err)
	}
	if tr.monomorphic(lang.ClassType("Base"), "poly") {
		t.Fatal("poly is overridden; not monomorphic")
	}
	if !tr.monomorphic(lang.ClassType("Base"), "mono") {
		t.Fatal("mono has no data-subclass override; monomorphic")
	}
	if tr.monomorphic(lang.ClassType("Object"), "hashCode") {
		t.Fatal("Object receivers must never devirtualize")
	}
}
