// Package benchjson is the machine-readable form of the experiment tables
// `bigmap-bench grid` writes under results/: the table schema, its
// validation, and the mean±stddev aggregation of repeated runs.
package benchjson

import (
	"encoding/json"
	"io"
)

// Schema identifies the report layout; bump on incompatible changes.
const Schema = "bigmap-bench/v1"

// TableJSON is one cmd/bigmap-bench experiment table in JSON form.
type TableJSON struct {
	Title  string     `json:"title"`
	Notes  []string   `json:"notes,omitempty"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// Report is the top-level artifact (results/grid.json).
type Report struct {
	Schema string      `json:"schema"`
	Tables []TableJSON `json:"tables,omitempty"`
}

// FromTable converts a rendered experiment table. It copies the payload so
// later mutation of the source table does not alias into the report.
func FromTable(title string, notes, header []string, rows [][]string) TableJSON {
	t := TableJSON{
		Title:  title,
		Notes:  append([]string(nil), notes...),
		Header: append([]string(nil), header...),
		Rows:   make([][]string, len(rows)),
	}
	for i, r := range rows {
		t.Rows[i] = append([]string(nil), r...)
	}
	return t
}

// Write emits the report as indented JSON with a trailing newline.
func (r *Report) Write(w io.Writer) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
