// Package bench contains the experiment harness: one runner per table and
// figure of the paper's evaluation (§V), producing aligned-text tables and
// CSV so the repository can regenerate every published artifact. Absolute
// numbers are host- and substrate-specific; EXPERIMENTS.md records
// paper-vs-measured comparisons and the shape criteria each experiment must
// satisfy.
package bench

import (
	"fmt"
	"io"
	"strings"
)

// Table is a rendered experiment result. The JSON tags are its layout in
// grid.json (gridjson.go).
type Table struct {
	// Title names the experiment ("Figure 6: ...").
	Title string `json:"title"`
	// Notes holds free-form context lines printed under the title.
	Notes []string `json:"notes,omitempty"`
	// Header and Rows are the tabular payload.
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes an aligned text table.
func (t *Table) Render(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "  %s\n", n); err != nil {
			return err
		}
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			// Right-align numeric-looking cells, left-align the rest.
			if looksNumeric(c) {
				b.WriteString(strings.Repeat(" ", pad))
				b.WriteString(c)
			} else {
				b.WriteString(c)
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		return strings.TrimRight(b.String(), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	total := len(widths) - 1
	if total < 0 {
		total = 0
	}
	for _, wd := range widths {
		total += wd + 1
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}

// RenderCSV writes the table as CSV (no quoting needed: cells are plain).
func (t *Table) RenderCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(t.Header, ",")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

func looksNumeric(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		switch {
		case r >= '0' && r <= '9':
		case r == '.' || r == '-' || r == '+' || r == '%' || r == 'x' || r == 'k' || r == 'M' || r == '/':
		default:
			return false
		}
	}
	return true
}

// fmtFloat renders a float with sensible precision for tables.
func fmtFloat(v float64, decimals int) string {
	return fmt.Sprintf("%.*f", decimals, v)
}

// fmtInt renders an int.
func fmtInt(v int) string { return fmt.Sprintf("%d", v) }

// fmtSize renders a map size as the paper writes it (64k, 256k, 2M, 8M).
func fmtSize(size int) string {
	switch {
	case size >= 1<<20:
		return fmt.Sprintf("%dM", size>>20)
	case size >= 1<<10:
		return fmt.Sprintf("%dk", size>>10)
	default:
		return fmt.Sprintf("%d", size)
	}
}

// fmtCount renders a key count with decimal units, matching the paper's
// Figure 2 legend (5k, 10k, ..., 1M).
func fmtCount(n int) string {
	switch {
	case n >= 1000000 && n%1000000 == 0:
		return fmt.Sprintf("%dM", n/1000000)
	case n >= 1000 && n%1000 == 0:
		return fmt.Sprintf("%dk", n/1000)
	default:
		return fmt.Sprintf("%d", n)
	}
}
