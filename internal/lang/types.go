package lang

import (
	"fmt"
	"sort"
)

// TypeKind classifies semantic types.
type TypeKind int

// Semantic type kinds. TNull is the type of the null literal.
const (
	TVoid TypeKind = iota
	TBool
	TByte
	TInt
	TLong
	TDouble
	TNull
	TClass
	TIface
	TArray
)

// Type is a semantic FJ type. Types are compared structurally with Equals;
// primitive singletons are package variables.
type Type struct {
	Kind TypeKind
	Name string // class/interface name for TClass/TIface
	Elem *Type  // element type for TArray
}

// Primitive type singletons.
var (
	VoidType   = &Type{Kind: TVoid}
	BoolType   = &Type{Kind: TBool}
	ByteType   = &Type{Kind: TByte}
	IntType    = &Type{Kind: TInt}
	LongType   = &Type{Kind: TLong}
	DoubleType = &Type{Kind: TDouble}
	NullType   = &Type{Kind: TNull}
)

// ClassType returns the type for a class name.
func ClassType(name string) *Type { return &Type{Kind: TClass, Name: name} }

// IfaceType returns the type for an interface name.
func IfaceType(name string) *Type { return &Type{Kind: TIface, Name: name} }

// ArrayOf returns the array type with the given element type.
func ArrayOf(elem *Type) *Type { return &Type{Kind: TArray, Elem: elem} }

// IsRef reports whether t is a reference type (class, interface, array, or
// null).
func (t *Type) IsRef() bool {
	return t.Kind == TClass || t.Kind == TIface || t.Kind == TArray || t.Kind == TNull
}

// IsNumeric reports whether t is byte, int, long, or double.
func (t *Type) IsNumeric() bool {
	return t.Kind == TByte || t.Kind == TInt || t.Kind == TLong || t.Kind == TDouble
}

// IsIntegral reports whether t is byte, int, or long.
func (t *Type) IsIntegral() bool {
	return t.Kind == TByte || t.Kind == TInt || t.Kind == TLong
}

// Equals reports structural type equality.
func (t *Type) Equals(o *Type) bool {
	if t == o {
		return true
	}
	if t == nil || o == nil || t.Kind != o.Kind {
		return false
	}
	switch t.Kind {
	case TClass, TIface:
		return t.Name == o.Name
	case TArray:
		return t.Elem.Equals(o.Elem)
	default:
		return true
	}
}

func (t *Type) String() string {
	switch t.Kind {
	case TVoid:
		return "void"
	case TBool:
		return "boolean"
	case TByte:
		return "byte"
	case TInt:
		return "int"
	case TLong:
		return "long"
	case TDouble:
		return "double"
	case TNull:
		return "null"
	case TClass, TIface:
		return t.Name
	case TArray:
		return t.Elem.String() + "[]"
	}
	return "?"
}

// FieldSize returns the byte size of a value of this type when stored in an
// object field, array element, or page record slot. References and page
// references are 8 bytes; layouts are therefore identical between heap
// objects and page records (Figure 1 of the paper).
func (t *Type) FieldSize() int {
	switch t.Kind {
	case TBool, TByte:
		return 1
	case TInt:
		return 4
	case TLong, TDouble:
		return 8
	default:
		return 8 // references
	}
}

// ---------------------------------------------------------------------------
// Program-level symbol tables

// Field is a resolved field.
type Field struct {
	Name   string
	Type   *Type
	Owner  *Class
	Static bool
	// Offset is the byte offset of the field from the start of the record
	// body (after the header), superclass fields first. Valid for instance
	// fields after layout.
	Offset int
	// StaticIndex indexes the VM's static storage for static fields.
	StaticIndex int
}

// Method is a resolved method, constructor, or interface method signature.
type Method struct {
	Name       string
	Owner      *Class // nil for interface methods
	OwnerIface *Iface // nil for class methods
	Static     bool
	IsCtor     bool
	Params     []*Type
	ParamNames []string
	Ret        *Type
	Decl       *MethodDecl
}

// Sig returns a human-readable signature.
func (m *Method) Sig() string {
	owner := ""
	if m.Owner != nil {
		owner = m.Owner.Name
	} else if m.OwnerIface != nil {
		owner = m.OwnerIface.Name
	}
	s := owner + "." + m.Name + "("
	for i, p := range m.Params {
		if i > 0 {
			s += ", "
		}
		s += p.String()
	}
	return s + ") " + m.Ret.String()
}

// Class is a resolved class with its layout and dispatch tables.
type Class struct {
	Name    string
	Decl    *ClassDecl
	Super   *Class
	Ifaces  []*Iface
	Subs    []*Class // direct subclasses
	Fields  []*Field // declared instance fields, in declaration order
	Statics []*Field // declared static fields
	Methods map[string]*Method
	Ctor    *Method
	// AllFields lists instance fields superclass-first; offsets are laid
	// out over this slice.
	AllFields []*Field
	// BodySize is the total byte size of all instance fields (the record
	// body, excluding any header).
	BodySize int
	// ID is the class's type ID, assigned densely in hierarchy order. Used
	// as the record type tag and for dispatch.
	ID int
}

// Iface is a resolved interface.
type Iface struct {
	Name    string
	Decl    *IfaceDecl
	Methods map[string]*Method
}

// IsSubclassOf reports whether c is t or a subclass of t.
func (c *Class) IsSubclassOf(t *Class) bool {
	for x := c; x != nil; x = x.Super {
		if x == t {
			return true
		}
	}
	return false
}

// Implements reports whether c or any superclass implements iface.
func (c *Class) Implements(iface *Iface) bool {
	for x := c; x != nil; x = x.Super {
		for _, i := range x.Ifaces {
			if i == iface {
				return true
			}
		}
	}
	return false
}

// Resolve finds the implementation of method name for receiver class c,
// walking up the hierarchy.
func (c *Class) Resolve(name string) *Method {
	for x := c; x != nil; x = x.Super {
		if m, ok := x.Methods[name]; ok {
			return m
		}
	}
	return nil
}

// Overridden reports whether any proper subclass of c declares method
// name. Class-hierarchy analysis: a call of name on a receiver of static
// class type c is monomorphic exactly when this is false (the world is
// closed — every class is in the hierarchy).
func (c *Class) Overridden(name string) bool {
	for _, s := range c.Subs {
		if _, ok := s.Methods[name]; ok || s.Overridden(name) {
			return true
		}
	}
	return false
}

// FindField finds the instance field name in c or a superclass.
func (c *Class) FindField(name string) *Field {
	for x := c; x != nil; x = x.Super {
		for _, f := range x.Fields {
			if f.Name == name {
				return f
			}
		}
	}
	return nil
}

// FindStatic finds the static field name in c or a superclass.
func (c *Class) FindStatic(name string) *Field {
	for x := c; x != nil; x = x.Super {
		for _, f := range x.Statics {
			if f.Name == name {
				return f
			}
		}
	}
	return nil
}

// Hierarchy is the resolved class/interface world for one program.
type Hierarchy struct {
	Classes map[string]*Class
	Ifaces  map[string]*Iface
	// Ordered lists in deterministic (name) order, Object first for
	// Ordered class list.
	ClassList []*Class
	IfaceList []*Iface
	Object    *Class
	String    *Class // nil if the program has no String class
	// NumStatics is the total number of static field slots.
	NumStatics int
}

// Class returns the named class or nil.
func (h *Hierarchy) Class(name string) *Class { return h.Classes[name] }

// Iface returns the named interface or nil.
func (h *Hierarchy) Iface(name string) *Iface { return h.Ifaces[name] }

// IsAssignable reports whether a value of type src may be assigned to a
// location of type dst without an explicit cast (reference widening and
// null only; numeric widening is handled by the checker inserting casts).
func (h *Hierarchy) IsAssignable(dst, src *Type) bool {
	if dst.Equals(src) {
		return true
	}
	if src.Kind == TNull && dst.IsRef() && dst.Kind != TNull {
		return true
	}
	switch dst.Kind {
	case TClass:
		if src.Kind != TClass {
			return false
		}
		sc, dc := h.Classes[src.Name], h.Classes[dst.Name]
		return sc != nil && dc != nil && sc.IsSubclassOf(dc)
	case TIface:
		di := h.Ifaces[dst.Name]
		if di == nil {
			return false
		}
		if src.Kind == TClass {
			sc := h.Classes[src.Name]
			return sc != nil && sc.Implements(di)
		}
		return false
	case TArray:
		// Array types are invariant except that any array is assignable to
		// Object.
		return false
	}
	if dst.Kind == TClass && dst.Name == "Object" {
		return src.IsRef()
	}
	return false
}

// assignableToObject reports the special case: any reference type can be
// assigned to Object.
func (h *Hierarchy) assignableRef(dst, src *Type) bool {
	if dst.Kind == TClass && dst.Name == "Object" && src.IsRef() {
		return true
	}
	return h.IsAssignable(dst, src)
}

// LookupIfaceMethod finds the interface method signature name on iface.
func (i *Iface) LookupIfaceMethod(name string) *Method { return i.Methods[name] }

func sortedClassNames(m map[string]*ClassDecl) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (h *Hierarchy) typeOf(te TypeExpr) (*Type, error) {
	var base *Type
	switch te.Kind {
	case TVoid:
		base = VoidType
	case TBool:
		base = BoolType
	case TByte:
		base = ByteType
	case TInt:
		base = IntType
	case TLong:
		base = LongType
	case TDouble:
		base = DoubleType
	case TClass:
		if _, ok := h.Classes[te.Name]; ok {
			base = ClassType(te.Name)
		} else if _, ok := h.Ifaces[te.Name]; ok {
			base = IfaceType(te.Name)
		} else {
			return nil, fmt.Errorf("%s: unknown type %s", te.Pos, te.Name)
		}
	default:
		return nil, fmt.Errorf("%s: bad type expression", te.Pos)
	}
	if te.Kind == TVoid && te.Dims > 0 {
		return nil, fmt.Errorf("%s: array of void", te.Pos)
	}
	for i := 0; i < te.Dims; i++ {
		base = ArrayOf(base)
	}
	return base, nil
}
