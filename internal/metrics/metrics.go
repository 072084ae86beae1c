// Package metrics renders experiment results as aligned text tables, the
// way cmd/repro and the benchmark harness report each reproduced table and
// figure.
package metrics

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Row appends a row; values are formatted with %v.
func (t *Table) Row(vals ...any) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.1f", x)
		case time.Duration:
			row[i] = fmt.Sprintf("%.2f", x.Seconds())
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the table to w. Columns whose body cells are all numeric
// (a "-" placeholder counts) are right-aligned under their header, the
// usual convention for measurement tables; text columns stay left-aligned.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Headers))
	numeric := make([]bool, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
		numeric[i] = len(t.rows) > 0
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i >= len(widths) {
				continue
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
			if !isNumericCell(c) {
				numeric[i] = false
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	line := func(cells []string, alignRight bool) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if alignRight && numeric[i] {
				parts[i] = padLeft(c, widths[i])
			} else {
				parts[i] = pad(c, widths[i])
			}
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Headers, true)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep, false)
	for _, r := range t.rows {
		line(r, true)
	}
}

// isNumericCell reports whether a rendered cell is a number, optionally
// with a trailing unit suffix ("2.0x", "85%"); "-" and "" are neutral
// placeholders that do not break a numeric column.
func isNumericCell(s string) bool {
	if s == "" || s == "-" || s == "inf" {
		return true
	}
	s = strings.TrimRight(s, "x%")
	if s == "" {
		return false
	}
	_, err := strconv.ParseFloat(s, 64)
	return err == nil
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func padLeft(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return strings.Repeat(" ", w-len(s)) + s
}

// MB formats a byte count in mebibytes. Negative counts (an uninitialized
// or inapplicable measurement) render as the "-" placeholder rather than a
// nonsense negative size; zero renders as "0.0".
func MB(b int64) string {
	if b < 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", float64(b)/(1<<20))
}
