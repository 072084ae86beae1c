package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// encodeRoundTrip is the encoder EncodeDeterministic replaced, kept as its
// oracle: json.Marshal, decode into a map[string]any tree with UseNumber,
// and walk the tree again to sort keys and reformat numbers.
func encodeRoundTrip(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := writeTree(&buf, tree, 0); err != nil {
		return nil, err
	}
	buf.WriteByte('\n')
	return buf.Bytes(), nil
}

func writeTree(buf *bytes.Buffer, v any, depth int) error {
	switch x := v.(type) {
	case nil:
		buf.WriteString("null")
	case bool:
		if x {
			buf.WriteString("true")
		} else {
			buf.WriteString("false")
		}
	case string:
		b, err := json.Marshal(x)
		if err != nil {
			return err
		}
		buf.Write(b)
	case json.Number:
		buf.WriteString(formatNumber(x))
	case []any:
		if len(x) == 0 {
			buf.WriteString("[]")
			return nil
		}
		buf.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				buf.WriteByte(',')
			}
			treeIndent(buf, depth+1)
			if err := writeTree(buf, e, depth+1); err != nil {
				return err
			}
		}
		treeIndent(buf, depth)
		buf.WriteByte(']')
	case map[string]any:
		if len(x) == 0 {
			buf.WriteString("{}")
			return nil
		}
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		buf.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				buf.WriteByte(',')
			}
			treeIndent(buf, depth+1)
			kb, err := json.Marshal(k)
			if err != nil {
				return err
			}
			buf.Write(kb)
			buf.WriteString(": ")
			if err := writeTree(buf, x[k], depth+1); err != nil {
				return err
			}
		}
		treeIndent(buf, depth)
		buf.WriteByte('}')
	default:
		return fmt.Errorf("obs: cannot deterministically encode %T", v)
	}
	return nil
}

func treeIndent(buf *bytes.Buffer, depth int) {
	buf.WriteByte('\n')
	for i := 0; i < depth; i++ {
		buf.WriteString("  ")
	}
}

// formatNumber keeps integers exact and renders everything else with %.6g.
func formatNumber(n json.Number) string {
	s := n.String()
	if !strings.ContainsAny(s, ".eE") {
		return s // integer literal, exact
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return s
	}
	return strconv.FormatFloat(f, 'g', 6, 64)
}

// checkAgainstOracle fails t unless EncodeDeterministic and the round-trip
// encoder agree on v: the same bytes, or both an error.
func checkAgainstOracle(t *testing.T, v any) {
	t.Helper()
	var got bytes.Buffer
	err := EncodeDeterministic(&got, v)
	want, werr := encodeRoundTrip(v)
	switch {
	case (err != nil) != (werr != nil):
		t.Fatalf("error disagreement on %#v:\nwalk: %v\nround trip: %v", v, err, werr)
	case err != nil:
		if got.Len() != 0 {
			t.Fatalf("walk wrote %d bytes before failing", got.Len())
		}
	case !bytes.Equal(got.Bytes(), want):
		t.Fatalf("encodings differ on %#v:\n--- walk ---\n%s\n--- round trip ---\n%s", v, got.Bytes(), want)
	}
}

// Types for the oracle comparisons: tags, omitempty, "-", embedded
// structs (promoted, shadowed, tied) and a recursive pointer.
type fuzzInner struct {
	X      int64  `json:"x,omitempty"`
	Shadow string `json:"a"` // loses to fuzzStruct.A, which is shallower
	Tie    int    `json:"tie"`
}

type fuzzOther struct {
	Tie  int `json:"tie"` // ties with fuzzInner.Tie: the name is dropped
	Deep float32
}

type fuzzStruct struct {
	A          int64              `json:"a,omitempty"`
	B          string             `json:"b"`
	F          float64            `json:"f,omitempty"`
	F32        float32            `json:"f32"`
	L          []any              `json:"l,omitempty"`
	M          map[string]float64 `json:"m,omitempty"`
	P          *fuzzStruct        `json:"p,omitempty"`
	I          any                `json:"i"`
	U          uint64             `json:"u,omitempty"`
	Bytes      []byte             `json:"bytes,omitempty"`
	Skip       bool               `json:"-"`
	Dash       int                `json:"-,"`
	HTML       string             `json:"<&>,omitempty"`
	Untagged   uint8
	unexported int
	fuzzInner
	*fuzzOther
}

func TestEncodeMatchesRoundTrip(t *testing.T) {
	seven := int64(7)
	cases := []any{
		nil,
		true,
		"",
		"<a href=\"x\">&amp;</a>\u2028\u2029\x00\x1f\x7f\b\f\n\r\t\\",
		"bad \xff\xfe utf8 \xe2\x80 and é",
		[]byte(nil), []byte{}, []byte("bytes\x00\xff"),
		[3]byte{1, 2, 3},
		[]any{}, []any(nil), map[string]any{}, map[string]any(nil),
		map[string]any{"\xff": 1, "\xfe": 2, "\uFFFD": 3, "a\xffb": 4, "a\uFFFDb": 5},
		map[string]int64{"\xff": 1, "ok": 2},
		map[int]string{-3: "a", 10: "b", 2: "c"},
		map[uint8]bool{200: true, 3: false},
		&seven, (*int64)(nil),
		fuzzStruct{},
		&fuzzStruct{A: 1, B: "b", F: 1e21, F32: 16777217, I: map[string]any{"z": []int{}}, fuzzOther: &fuzzOther{Tie: 2, Deep: 0.1}},
		fuzzStruct{P: &fuzzStruct{P: &fuzzStruct{B: "deep"}}, L: []any{1.5, "x", nil, []any{}}, Bytes: []byte{0xff}},
		struct{}{},
		struct {
			Ch chan int `json:"-"`
		}{},
		[]float64{0, -0.0, 1, 0.1 + 0.2, 1e20, 1e21, 123456789, 1234567.5, 1e-6, 9.99999e-7, 5e-324, math.MaxFloat64, -1e300},
		[]float32{0.1, 16777216, 3.4e38, 1e-7, 1e21, 9.999999e20},
		[]any{int8(-8), uint16(65535), uintptr(9), uint64(math.MaxUint64), int64(math.MinInt64)},
		// Errors on both sides.
		math.NaN(),
		map[string]float64{"inf": math.Inf(1)},
		[]any{make(chan int)},
		func() {},
		complex(1, 2),
		map[bool]int{true: 1},
	}
	for _, v := range cases {
		checkAgainstOracle(t, v)
	}
}

// fuzzSource builds values from fuzz bytes; it yields zeros once drained.
type fuzzSource struct{ b []byte }

func (s *fuzzSource) next() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

func (s *fuzzSource) u64() uint64 {
	var x uint64
	for i := 0; i < 8; i++ {
		x = x<<8 | uint64(s.next())
	}
	return x
}

// edgeFloats sit at the edges of json.Marshal's spelling (integer literal,
// fraction, exponent past 1e21 and below 1e-6) and of %.6g's rounding.
var edgeFloats = []float64{
	0, 1, 0.5, 0.1 + 0.2, 999999, 999999.5, 9999995, 1234567, 123456.5,
	1e20, math.Nextafter(1e21, 0), 1e21, math.Nextafter(1e21, math.Inf(1)),
	1e-6, math.Nextafter(1e-6, 0), 1e-7, 5e-324, math.MaxFloat64,
	1 << 53, 1<<53 + 2, 0.000123456789, 1.0000005, 2.5e-5,
}

// spice are string pieces json.Marshal escapes or the round trip rewrites.
var spice = []string{"<", ">", "&", "\"", "\\", "\u2028", "\u2029", "\xff", "\xe2\x80", "\xed\xa0\x80", "é", "\uFFFD", "\x00", "\x7f", "\n"}

func (s *fuzzSource) float() float64 {
	f := edgeFloats[int(s.next())%len(edgeFloats)]
	if s.next()&1 == 1 {
		f = -f
	}
	return f
}

func (s *fuzzSource) str() string {
	var b strings.Builder
	for n := s.next() % 8; n > 0; n-- {
		c := s.next()
		if c&0x80 != 0 {
			b.WriteString(spice[int(c&0x7f)%len(spice)])
		} else {
			b.WriteByte(c)
		}
	}
	return b.String()
}

func (s *fuzzSource) value(depth int) any {
	op := s.next() % 18
	if depth >= 4 && op >= 6 {
		op %= 6
	}
	switch op {
	case 0:
		return nil
	case 1:
		return s.next()&1 == 1
	case 2:
		return int64(s.u64())
	case 3:
		return math.Float64frombits(s.u64())
	case 4:
		return s.float()
	case 5:
		return s.str()
	case 6:
		n := int(s.next() % 5)
		if n == 4 {
			return []any(nil)
		}
		l := make([]any, n)
		for i := range l {
			l[i] = s.value(depth + 1)
		}
		return l
	case 7:
		m := map[string]any{}
		for n := s.next() % 5; n > 0; n-- {
			m[s.str()] = s.value(depth + 1)
		}
		return m
	case 8, 9:
		st := s.structure(depth)
		if op == 9 {
			return &st
		}
		return st
	case 10:
		m := map[string]int64{}
		for n := s.next() % 4; n > 0; n-- {
			m[s.str()] = int64(s.u64())
		}
		return m
	case 11:
		return float32(s.float())
	case 12:
		return math.Float32frombits(uint32(s.u64()))
	case 13:
		return s.u64()
	case 14:
		b := []byte(s.str())
		if len(b) == 0 && s.next()&1 == 1 {
			return []byte(nil)
		}
		return b
	case 15:
		m := map[int]string{}
		for n := s.next() % 4; n > 0; n-- {
			m[int(int8(s.next()))] = s.str()
		}
		return m
	case 16:
		m := map[string]float64{}
		for n := s.next() % 4; n > 0; n-- {
			m[s.str()] = s.float()
		}
		return m
	default:
		return []int64{int64(s.u64()), int64(int8(s.next()))}
	}
}

func (s *fuzzSource) structure(depth int) fuzzStruct {
	set := s.next()
	var st fuzzStruct
	if set&1 != 0 {
		st.A = int64(int8(s.next()))
	}
	if set&2 != 0 {
		st.B = s.str()
		st.HTML = s.str()
	}
	if set&4 != 0 {
		st.F, st.F32 = s.float(), float32(s.float())
	}
	if set&8 != 0 {
		if l, ok := s.value(depth + 1).([]any); ok {
			st.L = l
		}
		st.M = map[string]float64{s.str(): s.float()}
	}
	if set&16 != 0 && depth < 3 {
		p := s.structure(depth + 1)
		st.P = &p
	}
	if set&32 != 0 {
		st.I = s.value(depth + 1)
	}
	if set&64 != 0 {
		st.X, st.Shadow, st.fuzzInner.Tie = int64(s.next()), s.str(), int(s.next())
		st.Bytes = []byte(s.str())
	}
	if set&128 != 0 {
		st.fuzzOther = &fuzzOther{Tie: int(s.next()), Deep: float32(s.float())}
		st.U, st.Untagged, st.Dash, st.Skip = s.u64(), s.next(), int(s.next()), true
	}
	return st
}

// FuzzEncodeDeterministic holds the reflect walk to the round-trip encoder
// it replaced: on every value built from the input both give the same
// bytes, or both fail.
func FuzzEncodeDeterministic(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x07\x03\x81abc\x05\x02\x83\x88\x04\x0b\x01"))
	f.Add([]byte("\x08\xff\x05\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c"))
	f.Add([]byte("\x06\x03\x04\x0b\x01\x04\x0c\x00\x0b\x0e\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &fuzzSource{b: data}
		checkAgainstOracle(t, src.value(0))
	})
}
