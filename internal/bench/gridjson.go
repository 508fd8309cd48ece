package bench

// The machine-readable form of the experiment tables `bigmap-bench grid`
// writes under results/: the grid.json schema, its validation, and the
// mean±stddev aggregation of repeated runs.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// reportSchema identifies the report layout; bump on incompatible changes.
const reportSchema = "bigmap-bench/v1"

// gridReport is the top-level artifact (results/grid.json).
type gridReport struct {
	Schema string  `json:"schema"`
	Tables []Table `json:"tables,omitempty"`
}

// write emits the report as indented JSON with a trailing newline.
func (r *gridReport) write(w io.Writer) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// errSchema wraps every validation failure, so "this artifact drifted from
// the schema" is told apart from I/O problems.
var errSchema = errors.New("grid report: schema violation")

// validateReport checks a report against the bigmap-bench/v1 schema contract:
// the schema string must match, the report must carry at least one table,
// and every table must be rectangular (each row exactly as wide as its
// header) with a title and a non-empty header. This is what "fails on schema
// drift" means mechanically: an experiment driver that renames, widens or
// empties a table breaks validateReport before any artifact is written.
func validateReport(r *gridReport) error {
	if r == nil {
		return fmt.Errorf("%w: nil report", errSchema)
	}
	if r.Schema != reportSchema {
		return fmt.Errorf("%w: schema %q, want %q", errSchema, r.Schema, reportSchema)
	}
	if len(r.Tables) == 0 {
		return fmt.Errorf("%w: report carries no tables", errSchema)
	}
	for i := range r.Tables {
		if err := validateTable(&r.Tables[i]); err != nil {
			return fmt.Errorf("table %d: %w", i, err)
		}
	}
	return nil
}

// validateTable checks one table for the rectangularity contract.
func validateTable(t *Table) error {
	if t.Title == "" {
		return fmt.Errorf("%w: table has no title", errSchema)
	}
	if len(t.Header) == 0 {
		return fmt.Errorf("%w: table %q has an empty header", errSchema, t.Title)
	}
	for i, h := range t.Header {
		if strings.TrimSpace(h) == "" {
			return fmt.Errorf("%w: table %q header column %d is blank", errSchema, t.Title, i)
		}
	}
	if len(t.Rows) == 0 {
		return fmt.Errorf("%w: table %q has no rows", errSchema, t.Title)
	}
	for i, row := range t.Rows {
		if len(row) != len(t.Header) {
			return fmt.Errorf("%w: table %q row %d has %d cells for %d columns",
				errSchema, t.Title, i, len(row), len(t.Header))
		}
	}
	return nil
}

// aggregateTables folds N repeats of the same experiment table into one:
// label cells must agree verbatim across repeats, numeric cells are replaced
// by their mean — annotated with ±stddev (sample standard deviation) when
// there is more than one repeat and the spread survives rounding. The
// single-repeat case is a verbatim pass-through (copy, no ±0 noise), which is
// what keeps a repeats=1 grid byte-identical to the raw driver output.
//
// A cell is numeric when it parses as a float after splitting off a trailing
// unit suffix ("2.50x", "25.64%"); the suffix must agree across repeats and
// is re-attached to the mean. Output precision is the widest decimal count
// observed among the inputs for that cell.
func aggregateTables(tables []Table) (Table, error) {
	if len(tables) == 0 {
		return Table{}, fmt.Errorf("%w: aggregating zero tables", errSchema)
	}
	first := tables[0]
	for i, t := range tables[1:] {
		if t.Title != first.Title {
			return Table{}, fmt.Errorf("%w: repeat %d titled %q, want %q", errSchema, i+1, t.Title, first.Title)
		}
		if !slices.Equal(t.Header, first.Header) {
			return Table{}, fmt.Errorf("%w: repeat %d of %q changed the header", errSchema, i+1, first.Title)
		}
		if len(t.Rows) != len(first.Rows) {
			return Table{}, fmt.Errorf("%w: repeat %d of %q has %d rows, want %d",
				errSchema, i+1, first.Title, len(t.Rows), len(first.Rows))
		}
	}
	// The result is a copy: callers append notes to it, and the repeats'
	// tables stay as the drivers returned them.
	out := Table{
		Title:  first.Title,
		Notes:  slices.Clone(first.Notes),
		Header: slices.Clone(first.Header),
		Rows:   make([][]string, len(first.Rows)),
	}
	for ri := range first.Rows {
		out.Rows[ri] = make([]string, len(first.Rows[ri]))
		for ci := range first.Rows[ri] {
			cell, err := foldCell(tables, ri, ci)
			if err != nil {
				return Table{}, fmt.Errorf("%w: table %q row %d col %d: %v",
					errSchema, first.Title, ri, ci, err)
			}
			out.Rows[ri][ci] = cell
		}
	}
	return out, nil
}

// foldCell merges one cell position across all repeats.
func foldCell(tables []Table, ri, ci int) (string, error) {
	vals := make([]float64, 0, len(tables))
	decimals := 0
	suffix := ""
	identical := true
	for ti, t := range tables {
		if ri >= len(t.Rows) || ci >= len(t.Rows[ri]) {
			return "", fmt.Errorf("repeat %d is missing the cell", ti)
		}
		cell := t.Rows[ri][ci]
		if cell != tables[0].Rows[ri][ci] {
			identical = false
		}
		num, sfx, dec, ok := splitNumeric(cell)
		if !ok {
			if cell != tables[0].Rows[ri][ci] {
				return "", fmt.Errorf("non-numeric cell %q differs across repeats (first repeat: %q)",
					cell, tables[0].Rows[ri][ci])
			}
			continue
		}
		if ti > 0 && len(vals) == 0 {
			// Earlier repeats were non-numeric for this position.
			return "", fmt.Errorf("cell %q is numeric in repeat %d but not earlier", cell, ti)
		}
		if len(vals) > 0 && sfx != suffix {
			return "", fmt.Errorf("unit suffix changed across repeats: %q vs %q", sfx, suffix)
		}
		suffix = sfx
		if dec > decimals {
			decimals = dec
		}
		vals = append(vals, num)
	}
	if len(vals) == 0 || identical {
		return tables[0].Rows[ri][ci], nil
	}
	if len(vals) != len(tables) {
		return "", fmt.Errorf("cell is numeric in %d of %d repeats", len(vals), len(tables))
	}
	mean, sd := meanStddev(vals)
	cell := strconv.FormatFloat(mean, 'f', decimals, 64)
	if rounded := strconv.FormatFloat(sd, 'f', decimals, 64); !allZero(rounded) {
		cell += "±" + rounded
	}
	return cell + suffix, nil
}

// splitNumeric splits "25.64%" into (25.64, "%", 2, true). The numeric part
// must be a plain decimal (no exponent); the suffix is whatever follows it,
// at most 2 characters ("x", "%", "k", "M", "ms"...). Pure labels return
// ok=false.
func splitNumeric(s string) (val float64, suffix string, decimals int, ok bool) {
	if s == "" {
		return 0, "", 0, false
	}
	end := 0
	for end < len(s) && (s[end] == '-' || s[end] == '+' || s[end] == '.' || (s[end] >= '0' && s[end] <= '9')) {
		end++
	}
	if end == 0 || len(s)-end > 2 {
		return 0, "", 0, false
	}
	v, err := strconv.ParseFloat(s[:end], 64)
	if err != nil {
		return 0, "", 0, false
	}
	if i := strings.IndexByte(s[:end], '.'); i >= 0 {
		decimals = end - i - 1
	}
	return v, s[end:], decimals, true
}

// meanStddev returns the mean and the sample standard deviation (n-1 in the
// denominator; 0 for a single value).
func meanStddev(vals []float64) (mean, sd float64) {
	n := float64(len(vals))
	for _, v := range vals {
		mean += v
	}
	mean /= n
	if len(vals) < 2 {
		return mean, 0
	}
	var ss float64
	for _, v := range vals {
		d := v - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / (n - 1))
}

// allZero reports whether a formatted number is zero ("0", "0.00").
func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' && s[i] != '.' {
			return false
		}
	}
	return true
}
