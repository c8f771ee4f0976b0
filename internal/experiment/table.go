// Package experiment regenerates every table and figure of the paper's
// evaluation (§3 Tables 1–2, §5.3 Figures 5–9) plus the Theorem 4.1 bound
// study, over the synthetic workload model of §5.1. Each experiment returns
// a Table that renders as aligned text or CSV; cmd/fbbench drives them all
// and EXPERIMENTS.md records paper-vs-measured shapes.
package experiment

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is one experiment's output: labelled rows by named series columns.
type Table struct {
	// ID matches the paper artifact ("table1", "fig6a", ...).
	ID string
	// Title describes the experiment.
	Title string
	// ColLabel names the row label column (the x-axis).
	ColLabel string
	// Series names the value columns.
	Series []string
	// Rows holds the data.
	Rows []Row
	// Notes carries free-form observations appended below the table.
	Notes []string
}

// Row is one x-axis point.
type Row struct {
	// Label renders in the first column.
	Label string
	// X is the numeric x-value (NaN-free; used by CSV consumers and tests).
	X float64
	// Values holds one value per series; NaN renders as "-".
	Values []float64
}

// AddRow appends a row, enforcing series arity.
func (t *Table) AddRow(label string, x float64, values ...float64) {
	if len(values) != len(t.Series) {
		panic(fmt.Sprintf("experiment: table %s row %q has %d values for %d series",
			t.ID, label, len(values), len(t.Series)))
	}
	t.Rows = append(t.Rows, Row{Label: label, X: x, Values: values})
}

// Render writes an aligned text table.
func (t *Table) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)

	headers := append([]string{t.ColLabel}, t.Series...)
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	cells := make([][]string, len(t.Rows))
	for r, row := range t.Rows {
		cells[r] = make([]string, len(headers))
		cells[r][0] = row.Label
		if len(row.Label) > widths[0] {
			widths[0] = len(row.Label)
		}
		for c, v := range row.Values {
			s := formatValue(v)
			cells[r][c+1] = s
			if len(s) > widths[c+1] {
				widths[c+1] = len(s)
			}
		}
	}
	writeRow := func(cols []string) {
		for i, c := range cols {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range cells {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// CSV writes the table as comma-separated values with a header row.
func (t *Table) CSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString(csvEscape(t.ColLabel))
	b.WriteString(",x")
	for _, s := range t.Series {
		b.WriteByte(',')
		b.WriteString(csvEscape(s))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(csvEscape(row.Label))
		fmt.Fprintf(&b, ",%g", row.X)
		for _, v := range row.Values {
			fmt.Fprintf(&b, ",%s", formatValue(v))
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func formatValue(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	switch {
	case v == 0: //fbvet:allow floateq — formatting exact zero, not a rank decision
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.1f", v)
	case v >= 1:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
