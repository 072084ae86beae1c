package lang

import (
	"sync"
	"sync/atomic"
)

// ArrayTypes assigns dense indices to array element types, so an object or
// record header can name its array type in a few bits. The managed heap and
// the page store each own one. The zero value is an empty, unlimited table.
type ArrayTypes struct {
	// Limit caps the number of distinct element types (0 = no cap): the
	// width the owner's type word leaves for the index.
	Limit int

	mu    sync.Mutex
	index map[string]int
	// types is republished on every registration; the backing array only
	// ever grows past the published length, so Elem reads without the lock.
	types atomic.Pointer[[]*Type]
}

// Index returns the dense index of elem, registering it on first use, or -1
// when the table is full. Lookups of registered types never fail.
func (t *ArrayTypes) Index(elem *Type) int {
	key := elem.String()
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.index[key]; ok {
		return i
	}
	var types []*Type
	if p := t.types.Load(); p != nil {
		types = *p
	}
	i := len(types)
	if t.Limit > 0 && i >= t.Limit {
		return -1
	}
	if t.index == nil {
		t.index = make(map[string]int)
	}
	types = append(types, elem)
	t.types.Store(&types)
	t.index[key] = i
	return i
}

// Elem returns the element type registered under idx.
func (t *ArrayTypes) Elem(idx int) *Type { return (*t.types.Load())[idx] }
