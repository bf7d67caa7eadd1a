package report

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestRenderAlignsColumns(t *testing.T) {
	tb := NewTable("T", "A", "LongHeader")
	tb.AddRow("C1", 1.5, 2)
	tb.AddRow("C2", 10.25, 30000)
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "LongHeader") {
		t.Fatalf("render output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header and data lines share the same width.
	var w int
	for _, l := range lines {
		if strings.HasPrefix(l, "=") {
			w = len(l)
		}
	}
	for _, l := range lines {
		if len(l) > w {
			t.Fatalf("line wider than rule: %q", l)
		}
	}
}

func TestRatioRowGeomean(t *testing.T) {
	tb := NewTable("", "X", "Ref")
	tb.AddRow("a", 2, 1)
	tb.AddRow("b", 8, 1)
	// Ratios vs column 1: geomean(2/1, 8/1) = 4.
	tb.AddRatioRow("Ratio", []int{1, 1})
	var buf bytes.Buffer
	tb.RenderCSV(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	last := lines[len(lines)-1]
	if !strings.HasPrefix(last, "Ratio,4.000,1.000") {
		t.Fatalf("ratio row = %q", last)
	}
}

func TestRatioRowSkipsNegativeRef(t *testing.T) {
	tb := NewTable("", "X", "Y")
	tb.AddRow("a", 2, 3)
	tb.AddRatioRow("Ratio", []int{-1, 1})
	var buf bytes.Buffer
	tb.RenderCSV(&buf)
	if !strings.Contains(buf.String(), "Ratio,-,") {
		t.Fatalf("csv = %q", buf.String())
	}
}

func TestRatioRowIgnoresNonPositive(t *testing.T) {
	tb := NewTable("", "X", "Ref")
	tb.AddRow("a", 2, 1)
	tb.AddRow("b", 0, 1) // zero cell: skipped, not poisoning the geomean
	tb.AddRatioRow("Ratio", []int{1, 1})
	if len(tb.rows) != 3 {
		t.Fatal("rows")
	}
	var buf bytes.Buffer
	tb.RenderCSV(&buf)
	if !strings.Contains(buf.String(), "Ratio,2.000") {
		t.Fatalf("csv = %q", buf.String())
	}
}

func TestRatioRowPanicsOnBadRefCols(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	tb := NewTable("", "A", "B")
	tb.AddRow("x", 1, 2)
	tb.AddRatioRow("Ratio", []int{0})
}

func TestTextRowsAndCells(t *testing.T) {
	tb := NewTable("", "A")
	tb.AddTextRow("r", "hello")
	tb.AddRow("n", 42)
	if tb.Cell(1, 0) != 42 {
		t.Fatalf("Cell = %v", tb.Cell(1, 0))
	}
	var buf bytes.Buffer
	tb.Render(&buf)
	if !strings.Contains(buf.String(), "hello") {
		t.Fatal("text cell lost")
	}
}

func TestFormatCell(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{3, "3"},
		{3.5, "3.500"},
		{12345.6, "12345.6"},
		{0.123, "0.123"},
		{math.Pi, "3.142"},
	}
	for _, c := range cases {
		if got := formatCell(c.v); got != c.want {
			t.Errorf("formatCell(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}
