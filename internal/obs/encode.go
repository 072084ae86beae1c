package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
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
func EncodeDeterministic(w io.Writer, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := writeDet(&buf, tree, 0); err != nil {
		return err
	}
	buf.WriteByte('\n')
	_, err = w.Write(buf.Bytes())
	return err
}

func writeDet(buf *bytes.Buffer, v any, depth int) error {
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
			indent(buf, depth+1)
			if err := writeDet(buf, e, depth+1); err != nil {
				return err
			}
		}
		indent(buf, depth)
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
			indent(buf, depth+1)
			kb, err := json.Marshal(k)
			if err != nil {
				return err
			}
			buf.Write(kb)
			buf.WriteString(": ")
			if err := writeDet(buf, x[k], depth+1); err != nil {
				return err
			}
		}
		indent(buf, depth)
		buf.WriteByte('}')
	default:
		return fmt.Errorf("obs: cannot deterministically encode %T", v)
	}
	return nil
}

func indent(buf *bytes.Buffer, depth int) {
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
