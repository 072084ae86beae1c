package facade

import "testing"

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
