package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestTableRendering(t *testing.T) {
	tbl := NewTable("Title", "name", "secs", "count")
	tbl.Row("alpha", 1500*time.Millisecond, 42)
	tbl.Row("a-much-longer-name", 250*time.Millisecond, 7)
	var sb strings.Builder
	tbl.Render(&sb)
	out := sb.String()
	if !strings.HasPrefix(out, "Title\n") {
		t.Fatalf("missing title: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("line count %d: %q", len(lines), out)
	}
	if !strings.Contains(lines[3], "1.50") {
		t.Fatalf("duration formatting: %q", lines[3])
	}
	// Columns align: every data line must be at least as wide as the
	// longest cell of its column positions.
	if !strings.Contains(lines[4], "a-much-longer-name") {
		t.Fatal("row lost")
	}
}

func TestFloatAndHelpers(t *testing.T) {
	tbl := NewTable("", "v")
	tbl.Row(3.14159)
	var sb strings.Builder
	tbl.Render(&sb)
	if !strings.Contains(sb.String(), "3.1") {
		t.Fatalf("float formatting: %q", sb.String())
	}
	if MB(3<<20) != "3.0" {
		t.Fatalf("MB: %s", MB(3<<20))
	}
}

func TestHelperEdgeCases(t *testing.T) {
	if MB(0) != "0.0" {
		t.Fatalf("MB(0): %s", MB(0))
	}
	if MB(-1) != "-" {
		t.Fatalf("MB(-1): %s", MB(-1))
	}
}

func TestNumericColumnsRightAligned(t *testing.T) {
	tbl := NewTable("", "name", "count")
	tbl.Row("a", 7)
	tbl.Row("bbbb", 12345)
	var sb strings.Builder
	tbl.Render(&sb)
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	// Body lines: numeric column right-aligned (short value padded left),
	// text column left-aligned.
	if !strings.Contains(lines[2], "a         7") {
		t.Fatalf("numeric column not right-aligned: %q", lines[2])
	}
	if !strings.Contains(lines[3], "bbbb  12345") {
		t.Fatalf("wide value misaligned: %q", lines[3])
	}
	// Mixed (non-numeric) columns stay left-aligned: the short "3" row is
	// padded on the right, not pushed to the column's right edge.
	tbl2 := NewTable("", "verylongheader")
	tbl2.Row("OME(1.2)")
	tbl2.Row(3)
	var sb2 strings.Builder
	tbl2.Render(&sb2)
	l := strings.Split(strings.TrimRight(sb2.String(), "\n"), "\n")
	if got := l[3]; strings.TrimSpace(got) != "3" || !strings.HasPrefix(got, "  3 ") {
		t.Fatalf("mixed column should stay left-aligned: %q", got)
	}
}
