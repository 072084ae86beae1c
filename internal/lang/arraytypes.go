package lang

// ArrayTypes is a program's table of array element types. Each type gets a
// dense index, so an object or record header can name its array type in a
// few bits. The VM's linker builds the table once per program, from every
// element type the program names, and it is never written again: the heap
// and the page store of every VM over the program share it and read it
// without a lock.
type ArrayTypes struct {
	types []*Type
	index map[string]int
}

// NewArrayTypes builds the table over elems: one entry per distinct type
// (two types are one when their String forms are), indexed in order of
// first appearance.
func NewArrayTypes(elems []*Type) *ArrayTypes {
	t := &ArrayTypes{index: make(map[string]int, len(elems))}
	for _, e := range elems {
		key := e.String()
		if _, ok := t.index[key]; !ok {
			t.index[key] = len(t.types)
			t.types = append(t.types, e)
		}
	}
	return t
}

// Index returns the dense index of the element type spelled name (its
// String form), false when the table lacks it.
func (t *ArrayTypes) Index(name string) (int, bool) {
	i, ok := t.index[name]
	return i, ok
}

// Elem returns the element type under idx.
func (t *ArrayTypes) Elem(idx int) *Type { return t.types[idx] }

// Len returns the number of element types in the table.
func (t *ArrayTypes) Len() int { return len(t.types) }
