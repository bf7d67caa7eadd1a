// Package report renders the experiment tables in the layout of the paper:
// fixed-width ASCII columns, one row per design, and a trailing ratio row
// normalizing every flow against a reference column group (geometric mean
// of per-design ratios, the EDA convention).
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table accumulates rows of labeled numeric cells.
type Table struct {
	Title   string
	Columns []string
	rows    []row
}

type row struct {
	label string
	cells []float64
	text  []string // non-numeric override per cell ("" = numeric)
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a numeric row.
func (t *Table) AddRow(label string, cells ...float64) {
	t.rows = append(t.rows, row{label: label, cells: cells, text: make([]string, len(cells))})
}

// AddTextRow appends a row of preformatted cells.
func (t *Table) AddTextRow(label string, cells ...string) {
	r := row{label: label, cells: make([]float64, len(cells)), text: cells}
	t.rows = append(t.rows, r)
}

// Cell returns the numeric value at (row, col).
func (t *Table) Cell(r, c int) float64 { return t.rows[r].cells[c] }

// AddRatioRow appends a "Ratio" row: for every column, the geometric mean
// over data rows of cell/reference, where the reference column for column c
// is refCols[c] (use c itself for the normalization target, yielding 1.0).
// Columns with a negative refCols entry are left blank.
func (t *Table) AddRatioRow(label string, refCols []int) {
	if len(refCols) != len(t.Columns) {
		panic("report: refCols length mismatch")
	}
	n := len(t.rows)
	cells := make([]string, len(t.Columns))
	for c := range t.Columns {
		if refCols[c] < 0 {
			cells[c] = "-"
			continue
		}
		logSum, count := 0.0, 0
		for r := 0; r < n; r++ {
			v := t.rows[r].cells[c]
			ref := t.rows[r].cells[refCols[c]]
			if v <= 0 || ref <= 0 {
				continue
			}
			logSum += math.Log(v / ref)
			count++
		}
		if count == 0 {
			cells[c] = "-"
			continue
		}
		cells[c] = fmt.Sprintf("%.3f", math.Exp(logSum/float64(count)))
	}
	t.AddTextRow(label, cells...)
}

// Render writes the table as aligned ASCII.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Columns)+1)
	widths[0] = len("Design")
	for _, r := range t.rows {
		if len(r.label) > widths[0] {
			widths[0] = len(r.label)
		}
	}
	cells := make([][]string, len(t.rows))
	for ri, r := range t.rows {
		cells[ri] = make([]string, len(t.Columns))
		for c := range t.Columns {
			s := r.text[c]
			if s == "" {
				s = formatCell(r.cells[c])
			}
			cells[ri][c] = s
		}
	}
	for c, h := range t.Columns {
		widths[c+1] = len(h)
		for ri := range t.rows {
			if l := len(cells[ri][c]); l > widths[c+1] {
				widths[c+1] = l
			}
		}
	}
	total := widths[0]
	for _, wd := range widths[1:] {
		total += wd + 2
	}
	if t.Title != "" {
		fmt.Fprintln(w, t.Title)
	}
	fmt.Fprintln(w, strings.Repeat("=", total))
	fmt.Fprintf(w, "%-*s", widths[0], "Design")
	for c, h := range t.Columns {
		fmt.Fprintf(w, "  %*s", widths[c+1], h)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", total))
	for ri, r := range t.rows {
		fmt.Fprintf(w, "%-*s", widths[0], r.label)
		for c := range t.Columns {
			fmt.Fprintf(w, "  %*s", widths[c+1], cells[ri][c])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, strings.Repeat("=", total))
}

// RenderCSV writes the table as CSV for downstream plotting.
func (t *Table) RenderCSV(w io.Writer) {
	fmt.Fprintf(w, "design,%s\n", strings.Join(t.Columns, ","))
	for _, r := range t.rows {
		parts := make([]string, 0, len(t.Columns)+1)
		parts = append(parts, r.label)
		for c := range t.Columns {
			s := r.text[c]
			if s == "" {
				s = formatCell(r.cells[c])
			}
			parts = append(parts, s)
		}
		fmt.Fprintln(w, strings.Join(parts, ","))
	}
}

func formatCell(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e9:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}
