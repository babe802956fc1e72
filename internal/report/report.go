// Package report renders experiment outputs as aligned ASCII tables and
// tab-separated values (for plotting). Every figure and table regenerated
// by internal/exp flows through this package, so cmd/sigfig and the
// benchmarks share one formatting path.
package report

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table is a rectangular result set with named columns.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// New creates a table with the given title and column names.
func New(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row of already formatted cells. It panics if the arity
// does not match the column count — a programming error in the generator.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("report: row has %d cells, table has %d columns", len(cells), len(t.Columns)))
	}
	t.rows = append(t.rows, cells)
}

// AddNumericRow formats float cells with %.6g and appends them.
func (t *Table) AddNumericRow(values ...float64) {
	cells := make([]string, len(values))
	for i, v := range values {
		cells[i] = strconv.FormatFloat(v, 'g', 6, 64)
	}
	t.AddRow(cells...)
}

// Len returns the number of data rows.
func (t *Table) Len() int { return len(t.rows) }

// Rows returns the formatted rows (shared backing; callers must not
// mutate).
func (t *Table) Rows() [][]string { return t.rows }

// Cell returns the raw cell at row i, column j.
func (t *Table) Cell(i, j int) string { return t.rows[i][j] }

// Float parses the cell at row i, column j as a float64.
func (t *Table) Float(i, j int) (float64, error) {
	return strconv.ParseFloat(t.rows[i][j], 64)
}

// ColumnIndex returns the index of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

// WriteTSV writes a tab-separated rendering with a header row.
func (t *Table) WriteTSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(t.Columns, "\t")); err != nil {
		return err
	}
	for _, r := range t.rows {
		if _, err := fmt.Fprintln(w, strings.Join(r, "\t")); err != nil {
			return err
		}
	}
	return nil
}

// WritePretty writes an aligned, human-readable rendering.
func (t *Table) WritePretty(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.rows {
		for i, cell := range r {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = pad(cell, widths[i])
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "# %s\n", t.Title); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w, line(t.Columns)); err != nil {
		return err
	}
	rule := make([]string, len(t.Columns))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	if _, err := fmt.Fprintln(w, line(rule)); err != nil {
		return err
	}
	for _, r := range t.rows {
		if _, err := fmt.Fprintln(w, line(r)); err != nil {
			return err
		}
	}
	return nil
}

// String renders the pretty form.
func (t *Table) String() string {
	var b strings.Builder
	if err := t.WritePretty(&b); err != nil {
		return fmt.Sprintf("report: render error: %v", err)
	}
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}
