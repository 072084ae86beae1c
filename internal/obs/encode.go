package obs

import (
	"bytes"
	"encoding"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// EncodeDeterministic writes v as indented JSON with byte-stable output:
// object keys are sorted (including keys that came from struct fields),
// and non-integer numbers are rendered with %.6g so the same metrics
// always serialize to the same bytes regardless of accumulated float
// noise in the last bits. Integers pass through unrounded.
//
// Both the facade.run/v1 and facade.load/v1 writers go through this
// encoder, which is what makes golden-file schema tests and line-level
// diffs of committed reports possible.
//
// The encoding is one reflect walk over v, with encoding/json's field and
// string rules: exported fields under their json tag names, omitempty and
// "-" honoured, embedded structs promoted, strings escaped as json.Marshal
// escapes them except that an invalid UTF-8 byte becomes U+FFFD itself.
// A value the walk does not model — a type with its own MarshalJSON or
// MarshalText, a channel, a func, a complex number, NaN or ±Inf, a
// ",string" or ",omitzero" tag option — is an error, and nothing is
// written.
func EncodeDeterministic(w io.Writer, v any) error {
	e := encStates.Get().(*encState)
	defer e.release()
	if err := e.value(reflect.ValueOf(v), 0); err != nil {
		return err
	}
	e.buf = append(e.buf, '\n')
	_, err := w.Write(e.buf)
	return err
}

// encState is one encoding in progress. States are pooled, so a warm
// encoder allocates only what the value's maps need.
type encState struct {
	buf  []byte
	keys []string // a counter map's keys, sorted
	ptrs int      // pointers and interfaces entered on the current path
}

var encStates = sync.Pool{New: func() any { return new(encState) }}

func (e *encState) release() {
	if cap(e.buf) > 1<<20 {
		return // let an outsized buffer go
	}
	e.buf, e.keys, e.ptrs = e.buf[:0], e.keys[:0], 0
	encStates.Put(e)
}

// maxNesting matches encoding/json's decoder limit, which bounded the
// round-trip encoder this walk replaced; it also stops a pointer cycle.
const maxNesting = 10000

func (e *encState) value(v reflect.Value, depth int) error {
	if !v.IsValid() {
		e.buf = append(e.buf, "null"...)
		return nil
	}
	return encoderOf(v.Type())(e, v, depth)
}

func (e *encState) indent(depth int) {
	e.buf = append(e.buf, '\n')
	for i := 0; i < depth; i++ {
		e.buf = append(e.buf, "  "...)
	}
}

// open starts an object or array whose members sit at depth+1.
func (e *encState) open(c byte, depth int) error {
	if depth >= maxNesting {
		return fmt.Errorf("obs: value nests deeper than %d", maxNesting)
	}
	e.buf = append(e.buf, c)
	return nil
}

func (e *encState) close(c byte, depth int) {
	e.indent(depth)
	e.buf = append(e.buf, c)
}

// encoderFunc writes one value of the type it was built for.
type encoderFunc func(e *encState, v reflect.Value, depth int) error

var encoders sync.Map // reflect.Type -> encoderFunc

// encoderOf returns the cached encoder for t, building it on first use. A
// recursive type sees a forwarding stub for itself while it is built.
func encoderOf(t reflect.Type) encoderFunc {
	if f, ok := encoders.Load(t); ok {
		return f.(encoderFunc)
	}
	var (
		wg sync.WaitGroup
		f  encoderFunc
	)
	wg.Add(1)
	stub, loaded := encoders.LoadOrStore(t, encoderFunc(func(e *encState, v reflect.Value, depth int) error {
		wg.Wait()
		return f(e, v, depth)
	}))
	if loaded {
		return stub.(encoderFunc)
	}
	f = newEncoder(t)
	wg.Done()
	encoders.Store(t, f)
	return f
}

var (
	marshalerType     = reflect.TypeFor[json.Marshaler]()
	textMarshalerType = reflect.TypeFor[encoding.TextMarshaler]()
)

// marshalsItself reports whether json.Marshal would hand t (or *t) to its
// own marshaling method.
func marshalsItself(t reflect.Type) bool {
	if t.Implements(marshalerType) || t.Implements(textMarshalerType) {
		return true
	}
	if t.Kind() == reflect.Pointer {
		return false
	}
	pt := reflect.PointerTo(t)
	return pt.Implements(marshalerType) || pt.Implements(textMarshalerType)
}

func unsupported(t reflect.Type, why string) encoderFunc {
	err := fmt.Errorf("obs: cannot deterministically encode %v: %s", t, why)
	return func(*encState, reflect.Value, int) error { return err }
}

func newEncoder(t reflect.Type) encoderFunc {
	if marshalsItself(t) {
		return unsupported(t, "it marshals itself")
	}
	switch t.Kind() {
	case reflect.Bool:
		return encodeBool
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return encodeInt
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return encodeUint
	case reflect.Float32, reflect.Float64:
		return encodeFloat
	case reflect.String:
		return encodeString
	case reflect.Interface:
		return encodeInterface
	case reflect.Pointer:
		return newPtrEncoder(t)
	case reflect.Struct:
		return newStructEncoder(t)
	case reflect.Map:
		return newMapEncoder(t)
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 && !marshalsItself(t.Elem()) {
			return encodeBytes
		}
		return newArrayEncoder(t)
	case reflect.Array:
		return newArrayEncoder(t)
	}
	return unsupported(t, "no JSON form")
}

func encodeBool(e *encState, v reflect.Value, _ int) error {
	e.buf = strconv.AppendBool(e.buf, v.Bool())
	return nil
}

func encodeInt(e *encState, v reflect.Value, _ int) error {
	e.buf = strconv.AppendInt(e.buf, v.Int(), 10)
	return nil
}

func encodeUint(e *encState, v reflect.Value, _ int) error {
	e.buf = strconv.AppendUint(e.buf, v.Uint(), 10)
	return nil
}

func encodeFloat(e *encState, v reflect.Value, _ int) error {
	var err error
	e.buf, err = appendFloat(e.buf, v.Float(), v.Type().Bits())
	return err
}

// appendFloat keeps a float json.Marshal spells as an integer literal
// exact and renders every other one with %.6g (formatNumber's rule).
func appendFloat(dst []byte, f float64, bits int) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("obs: cannot encode %v", f)
	}
	// encoding/json's spelling: shortest digits, exponent form outside
	// [1e-6, 1e21).
	abs, format := math.Abs(f), byte('f')
	if abs != 0 && (bits == 64 && (abs < 1e-6 || abs >= 1e21) ||
		bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21)) {
		format = 'e'
	}
	start := len(dst)
	dst = strconv.AppendFloat(dst, f, format, -1, bits)
	if format == 'f' && bytes.IndexByte(dst[start:], '.') < 0 {
		return dst, nil
	}
	if bits == 32 {
		// %.6g applies to the float64 the 32-bit spelling parses to.
		f, _ = strconv.ParseFloat(string(dst[start:]), 64)
	}
	return strconv.AppendFloat(dst[:start], f, 'g', 6, 64), nil
}

func encodeString(e *encState, v reflect.Value, _ int) error {
	e.buf = appendString(e.buf, v.String())
	return nil
}

func encodeBytes(e *encState, v reflect.Value, _ int) error {
	if v.IsNil() {
		e.buf = append(e.buf, "null"...)
		return nil
	}
	e.buf = append(e.buf, '"')
	e.buf = base64.StdEncoding.AppendEncode(e.buf, v.Bytes())
	e.buf = append(e.buf, '"')
	return nil
}

func encodeInterface(e *encState, v reflect.Value, depth int) error {
	if v.IsNil() {
		e.buf = append(e.buf, "null"...)
		return nil
	}
	return e.follow(encoderOf(v.Elem().Type()), v.Elem(), depth)
}

func newPtrEncoder(t reflect.Type) encoderFunc {
	elem := encoderOf(t.Elem())
	return func(e *encState, v reflect.Value, depth int) error {
		if v.IsNil() {
			e.buf = append(e.buf, "null"...)
			return nil
		}
		return e.follow(elem, v.Elem(), depth)
	}
}

// follow encodes the value behind a pointer or an interface, counting the
// indirections on the current path so that a cycle ends in an error.
func (e *encState) follow(enc encoderFunc, v reflect.Value, depth int) error {
	if e.ptrs++; e.ptrs > maxNesting {
		return fmt.Errorf("obs: pointer chain longer than %d (a cycle?)", maxNesting)
	}
	err := enc(e, v, depth)
	e.ptrs--
	return err
}

func newArrayEncoder(t reflect.Type) encoderFunc {
	elem := encoderOf(t.Elem())
	return func(e *encState, v reflect.Value, depth int) error {
		if v.Kind() == reflect.Slice && v.IsNil() {
			e.buf = append(e.buf, "null"...)
			return nil
		}
		n := v.Len()
		if n == 0 {
			e.buf = append(e.buf, "[]"...)
			return nil
		}
		if err := e.open('[', depth); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.indent(depth + 1)
			if err := elem(e, v.Index(i), depth+1); err != nil {
				return err
			}
		}
		e.close(']', depth)
		return nil
	}
}

// field is one JSON member of a struct type.
type field struct {
	name      string
	key       []byte // the quoted name, a colon and a space
	index     []int  // path through embedded structs
	tagged    bool
	omitEmpty bool
	typ       reflect.Type
	enc       encoderFunc
}

func newStructEncoder(t reflect.Type) encoderFunc {
	fields, err := structFields(t)
	if err != nil {
		return unsupported(t, err.Error())
	}
	for i := range fields {
		fields[i].enc = encoderOf(fields[i].typ)
	}
	return func(e *encState, v reflect.Value, depth int) error {
		n := 0
	next:
		for i := range fields {
			f := &fields[i]
			fv := v
			for _, x := range f.index {
				if fv.Kind() == reflect.Pointer {
					if fv.IsNil() {
						continue next // a nil embedded pointer hides its fields
					}
					fv = fv.Elem()
				}
				fv = fv.Field(x)
			}
			if f.omitEmpty && isEmptyValue(fv) {
				continue
			}
			if n == 0 {
				if err := e.open('{', depth); err != nil {
					return err
				}
			} else {
				e.buf = append(e.buf, ',')
			}
			n++
			e.indent(depth + 1)
			e.buf = append(e.buf, f.key...)
			if err := f.enc(e, fv, depth+1); err != nil {
				return err
			}
		}
		if n == 0 {
			e.buf = append(e.buf, "{}"...)
			return nil
		}
		e.close('}', depth)
		return nil
	}
}

// structFields lists t's JSON members sorted by name, resolving embedded
// structs with encoding/json's dominance rule: the shallowest field wins,
// a tagged one over an untagged one at the same depth, and a tie drops
// the name altogether.
func structFields(t reflect.Type) ([]field, error) {
	type embedded struct {
		typ   reflect.Type
		index []int
	}
	var fields []field
	next := []embedded{{typ: t}}
	visited := map[reflect.Type]bool{}
	var count, nextCount map[reflect.Type]int // embeddings per struct type, this depth and the next
	for len(next) > 0 {
		current := next
		next = nil
		count, nextCount = nextCount, map[reflect.Type]int{}
		for _, s := range current {
			if visited[s.typ] {
				continue
			}
			visited[s.typ] = true
			for i := 0; i < s.typ.NumField(); i++ {
				sf := s.typ.Field(i)
				if sf.Anonymous {
					et := sf.Type
					if et.Kind() == reflect.Pointer {
						et = et.Elem()
					}
					if !sf.IsExported() && et.Kind() != reflect.Struct {
						continue
					}
				} else if !sf.IsExported() {
					continue
				}
				tag := sf.Tag.Get("json")
				if tag == "-" {
					continue
				}
				name, opts, _ := strings.Cut(tag, ",")
				if !validTagName(name) {
					name = ""
				}
				index := append(slices.Clip(s.index), i)
				ft := sf.Type
				if ft.Name() == "" && ft.Kind() == reflect.Pointer {
					ft = ft.Elem()
				}
				if name == "" && sf.Anonymous && ft.Kind() == reflect.Struct {
					nextCount[ft]++
					if nextCount[ft] == 1 {
						next = append(next, embedded{typ: ft, index: index})
					}
					continue
				}
				omitEmpty := false
				for _, opt := range strings.Split(opts, ",") {
					switch opt {
					case "omitempty":
						omitEmpty = true
					case "string", "omitzero":
						return nil, fmt.Errorf("field %s: tag option %q", sf.Name, opt)
					}
				}
				f := field{name: name, index: index, tagged: name != "", omitEmpty: omitEmpty, typ: sf.Type}
				if f.name == "" {
					f.name = sf.Name
				}
				fields = append(fields, f)
				if count[s.typ] > 1 {
					// The struct is embedded twice at this depth: a second
					// copy makes the name a tie.
					fields = append(fields, f)
				}
			}
		}
	}
	slices.SortFunc(fields, func(a, b field) int {
		if c := strings.Compare(a.name, b.name); c != 0 {
			return c
		}
		if c := len(a.index) - len(b.index); c != 0 {
			return c
		}
		if a.tagged != b.tagged {
			if a.tagged {
				return -1
			}
			return 1
		}
		return slices.Compare(a.index, b.index)
	})
	out := fields[:0]
	for i := 0; i < len(fields); {
		j := i + 1
		for j < len(fields) && fields[j].name == fields[i].name {
			j++
		}
		if j-i == 1 || len(fields[i].index) < len(fields[i+1].index) || fields[i].tagged != fields[i+1].tagged {
			f := fields[i]
			f.key = append(appendString(nil, f.name), ": "...)
			out = append(out, f)
		}
		i = j
	}
	return out, nil
}

// validTagName is encoding/json's test for a usable tag name.
func validTagName(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		switch {
		case strings.ContainsRune("!#$%&()*+-./:;<=>?@[]^_{|}~ ", c):
		case !unicode.IsLetter(c) && !unicode.IsDigit(c):
			return false
		}
	}
	return true
}

func isEmptyValue(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Array, reflect.Map, reflect.Slice, reflect.String:
		return v.Len() == 0
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64,
		reflect.Interface, reflect.Pointer:
		return v.IsZero()
	}
	return false
}

func newMapEncoder(t reflect.Type) encoderFunc {
	switch t.Key().Kind() {
	case reflect.String:
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if marshalsItself(t.Key()) {
			return unsupported(t, "its key type marshals itself")
		}
	default:
		return unsupported(t, "its keys are not strings or integers")
	}
	slow := mapEncoder{elem: encoderOf(t.Elem())}.encode
	if t == reflect.TypeFor[map[string]int64]() {
		return counterMapEncoder(slow)
	}
	return slow
}

// counterMapEncoder encodes a map[string]int64 — RunStats' counters,
// gauges and class allocations, most of a job status — without
// reflection, sorting its keys in the encoder's scratch slice, so it
// allocates nothing. A key that is not valid UTF-8 sends the map down
// slow, which knows how the round trip merged such keys.
func counterMapEncoder(slow encoderFunc) encoderFunc {
	return func(e *encState, v reflect.Value, depth int) error {
		if v.IsNil() {
			e.buf = append(e.buf, "null"...)
			return nil
		}
		if !v.CanInterface() {
			return slow(e, v, depth)
		}
		m := v.Interface().(map[string]int64)
		if len(m) == 0 {
			e.buf = append(e.buf, "{}"...)
			return nil
		}
		e.keys = e.keys[:0]
		for k := range m {
			if !utf8.ValidString(k) {
				return slow(e, v, depth)
			}
			e.keys = append(e.keys, k)
		}
		slices.Sort(e.keys)
		if err := e.open('{', depth); err != nil {
			return err
		}
		for i, k := range e.keys {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.indent(depth + 1)
			e.buf = append(appendString(e.buf, k), ": "...)
			e.buf = strconv.AppendInt(e.buf, m[k], 10)
		}
		e.close('}', depth)
		return nil
	}
}

type mapEncoder struct{ elem encoderFunc }

type mapEntry struct {
	name string // the key as the output spells it
	orig string // the key as json.Marshal sorted it
	val  reflect.Value
}

func (me mapEncoder) encode(e *encState, v reflect.Value, depth int) error {
	if v.IsNil() {
		e.buf = append(e.buf, "null"...)
		return nil
	}
	if v.Len() == 0 {
		e.buf = append(e.buf, "{}"...)
		return nil
	}
	entries := make([]mapEntry, 0, v.Len())
	for it := v.MapRange(); it.Next(); {
		var orig string
		switch k := it.Key(); k.Kind() {
		case reflect.String:
			orig = k.String()
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			orig = strconv.FormatInt(k.Int(), 10)
		default:
			orig = strconv.FormatUint(k.Uint(), 10)
		}
		entries = append(entries, mapEntry{name: replaceInvalidUTF8(orig), orig: orig, val: it.Value()})
	}
	slices.SortFunc(entries, func(a, b mapEntry) int {
		if c := strings.Compare(a.name, b.name); c != 0 {
			return c
		}
		return strings.Compare(a.orig, b.orig)
	})
	if err := e.open('{', depth); err != nil {
		return err
	}
	n := 0
	for i, en := range entries {
		if i+1 < len(entries) && entries[i+1].name == en.name {
			// Keys that differ only in invalid bytes came back from the
			// round trip as one key holding the last value json.Marshal
			// wrote, which is the greatest original key's.
			continue
		}
		if n > 0 {
			e.buf = append(e.buf, ',')
		}
		n++
		e.indent(depth + 1)
		e.buf = append(appendString(e.buf, en.name), ": "...)
		if err := me.elem(e, en.val, depth+1); err != nil {
			return err
		}
	}
	e.close('}', depth)
	return nil
}

// replaceInvalidUTF8 replaces every byte that does not begin a valid UTF-8
// sequence with U+FFFD, byte for byte, as json.Marshal's \ufffd escape
// and the decoder made of it.
func replaceInvalidUTF8(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b.WriteRune(utf8.RuneError)
		} else {
			b.WriteString(s[i : i+size])
		}
		i += size
	}
	return b.String()
}

const hexDigits = "0123456789abcdef"

// appendString quotes s as json.Marshal does (HTML-safe, U+2028 and
// U+2029 escaped), except that an invalid UTF-8 byte becomes U+FFFD itself
// rather than its \ufffd escape.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = utf8.AppendRune(dst, utf8.RuneError)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
