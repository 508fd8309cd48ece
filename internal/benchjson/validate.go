package benchjson

import (
	"errors"
	"fmt"
	"strings"
)

// ErrSchema wraps every validation failure so callers (the grid runner, the
// CI results-smoke job) can distinguish "this artifact drifted from the
// schema" from I/O problems.
var ErrSchema = errors.New("benchjson: schema violation")

// Validate checks a report against the bigmap-bench/v1 schema contract:
// the schema string must match, the report must carry at least one table,
// and every table must be rectangular (each row exactly as wide as its
// header) with a title and a non-empty header. This is what "fails on schema
// drift" means mechanically: an experiment driver that renames, widens or
// empties a table breaks Validate before any artifact is written.
func Validate(r *Report) error {
	if r == nil {
		return fmt.Errorf("%w: nil report", ErrSchema)
	}
	if r.Schema != Schema {
		return fmt.Errorf("%w: schema %q, want %q", ErrSchema, r.Schema, Schema)
	}
	if len(r.Tables) == 0 {
		return fmt.Errorf("%w: report carries no tables", ErrSchema)
	}
	for i := range r.Tables {
		if err := ValidateTable(&r.Tables[i]); err != nil {
			return fmt.Errorf("table %d: %w", i, err)
		}
	}
	return nil
}

// ValidateTable checks one table for the rectangularity contract.
func ValidateTable(t *TableJSON) error {
	if t.Title == "" {
		return fmt.Errorf("%w: table has no title", ErrSchema)
	}
	if len(t.Header) == 0 {
		return fmt.Errorf("%w: table %q has an empty header", ErrSchema, t.Title)
	}
	for i, h := range t.Header {
		if strings.TrimSpace(h) == "" {
			return fmt.Errorf("%w: table %q header column %d is blank", ErrSchema, t.Title, i)
		}
	}
	if len(t.Rows) == 0 {
		return fmt.Errorf("%w: table %q has no rows", ErrSchema, t.Title)
	}
	for i, row := range t.Rows {
		if len(row) != len(t.Header) {
			return fmt.Errorf("%w: table %q row %d has %d cells for %d columns",
				ErrSchema, t.Title, i, len(row), len(t.Header))
		}
	}
	return nil
}
