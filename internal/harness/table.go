// Package harness provides the experiment infrastructure: result tables and
// series, summary statistics, and empirical certification of the theory's
// semantic properties. Certify reads all three of Theorem 1's hypotheses —
// helpfulness of servers, safety and viability of a sensing function — off
// one run of each candidate with the server, in the world the caller
// builds; goalsweep claims passes each sweep row's own.
package harness

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Table is a rendered experiment result, one row per configuration.
type Table struct {
	// ID is the experiment identifier (e.g. "T1").
	ID string `json:"id"`
	// Title describes what the table shows.
	Title string `json:"title"`
	// Columns are the header cells.
	Columns []string `json:"columns"`
	// Rows are the data cells; each row must have len(Columns) cells.
	Rows [][]string `json:"rows"`
	// Notes are free-form lines rendered under the table.
	Notes []string `json:"notes,omitempty"`
}

// AddRow appends a row. It panics if the cell count does not match the
// header — a programming error in experiment code.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("harness: row has %d cells, table %s has %d columns",
			len(cells), t.ID, len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// Render writes an aligned ASCII rendition.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	// A row is padded up to its last non-empty cell, which ends the line:
	// no line ends in spaces.
	writeRow := func(cells []string) {
		last := len(cells) - 1
		for last >= 0 && cells[last] == "" {
			last--
		}
		for i, cell := range cells[:last+1] {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < last {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := len(t.Columns)*2 - 2
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Line is one named curve of a Series.
type Line struct {
	Name string    `json:"name"`
	X    []float64 `json:"x"`
	Y    []float64 `json:"y"`
}

// Series is a figure: one or more lines over a shared x-axis meaning.
type Series struct {
	// ID is the figure identifier (e.g. "F1").
	ID string `json:"id"`
	// Title describes the figure.
	Title string `json:"title"`
	// XLabel and YLabel name the axes.
	XLabel string `json:"xLabel"`
	YLabel string `json:"yLabel"`
	// Lines are the curves.
	Lines []Line `json:"lines"`
}

// Render writes the series as a column-aligned point listing, one block per
// line — the text analogue of a figure.
func (s *Series) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", s.ID, s.Title)
	fmt.Fprintf(&b, "x-axis: %s, y-axis: %s\n", s.XLabel, s.YLabel)
	for _, line := range s.Lines {
		fmt.Fprintf(&b, "-- %s (%d points)\n", line.Name, len(line.X))
		for i := range line.X {
			fmt.Fprintf(&b, "   %12.2f  %12.2f\n", line.X[i], line.Y[i])
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Report bundles the artifacts of one experiment.
type Report struct {
	Tables []*Table  `json:"tables,omitempty"`
	Series []*Series `json:"series,omitempty"`
}

// Render writes every table and series.
func (r *Report) Render(w io.Writer) error {
	for _, t := range r.Tables {
		if err := t.Render(w); err != nil {
			return err
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	for _, s := range r.Series {
		if err := s.Render(w); err != nil {
			return err
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Stddev returns the population standard deviation of xs, or 0 for fewer
// than two samples.
func Stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	acc := 0.0
	for _, x := range xs {
		d := x - m
		acc += d * d
	}
	return math.Sqrt(acc / float64(len(xs)))
}

// Percentile returns the p-th percentile (0–100) of xs by nearest-rank on
// a sorted copy; 0 for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// Percent formats a ratio as "NN.N%".
func Percent(num, den int) string {
	if den == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(num)/float64(den))
}

// F formats a float compactly for table cells.
func F(x float64) string { return fmt.Sprintf("%.1f", x) }

// I formats an int for table cells.
func I(x int) string { return fmt.Sprintf("%d", x) }
