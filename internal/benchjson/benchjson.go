// Package benchjson turns benchmark results into one machine-readable JSON
// artifact. It has two producers feeding the same schema: a parser for the
// text `go test -bench -benchmem` emits (the kernel and exec-loop
// microbenchmarks behind BENCH_2.json), and a converter for the experiment
// tables `bigmap-bench grid` writes under results/ — so CI, the Makefile's
// bench target and the paper-artifact runner all speak one format.
package benchjson

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Schema identifies the report layout; bump on incompatible changes.
const Schema = "bigmap-bench/v1"

// Record is one sub-benchmark measurement. The repo's benchmarks name
// themselves Benchmark<Op>/<variant>/<scheme>/<size> (or a prefix of that),
// and the parser lifts those path components into typed fields so consumers
// can select "BigMap classify+compare at 8M" without re-parsing names.
type Record struct {
	// Name is the full benchmark name with the -GOMAXPROCS suffix stripped,
	// e.g. "BenchmarkClassifyKernel/word/bigmap/8M".
	Name string `json:"name"`
	// Op is the benchmark function name without the Benchmark prefix.
	Op string `json:"op"`
	// Variant, Scheme and MapSize are derived from the sub-benchmark path
	// when recognizable ("scalar"/"word"/"add"/..., "afl"/"bigmap",
	// "64k"/"2M"/"8M"); empty otherwise.
	Variant string `json:"variant,omitempty"`
	Scheme  string `json:"scheme,omitempty"`
	MapSize string `json:"map_size,omitempty"`
	// Iterations is the benchmark's N.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the reported time per operation in nanoseconds.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp mirror -benchmem; -1 when the run did not
	// report them (so "0 allocs/op" is distinguishable from "not measured").
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
}

// TableJSON is one cmd/bigmap-bench experiment table in JSON form.
type TableJSON struct {
	Title  string     `json:"title"`
	Notes  []string   `json:"notes,omitempty"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// Report is the top-level artifact (BENCH_2.json).
type Report struct {
	Schema string `json:"schema"`
	// GoOS/GoArch/CPU are taken from the go test preamble when parsing
	// bench output; empty when the report holds only tables.
	GoOS    string      `json:"goos,omitempty"`
	GoArch  string      `json:"goarch,omitempty"`
	CPU     string      `json:"cpu,omitempty"`
	Records []Record    `json:"records,omitempty"`
	Tables  []TableJSON `json:"tables,omitempty"`
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

// ParseGoBench reads `go test -bench` text output and returns a Report with
// one Record per result line. Lines that are not benchmark results (PASS,
// ok, progress output interleaved by other tooling) are ignored, so the
// parser can consume a whole test run verbatim.
func ParseGoBench(r io.Reader) (*Report, error) {
	rep := &Report{Schema: Schema}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			rec, ok, err := parseResultLine(line)
			if err != nil {
				return nil, err
			}
			if ok {
				rep.Records = append(rep.Records, rec)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rep.Records) == 0 {
		return nil, fmt.Errorf("benchjson: no benchmark result lines in input")
	}
	return rep, nil
}

// parseResultLine parses one "BenchmarkName-8  N  ns/op ..." line. ok is
// false for benchmark banner lines that carry no measurements (a name with
// no fields, as `go test -v` prints before running).
func parseResultLine(line string) (Record, bool, error) {
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return Record{}, false, nil
	}
	name := fields[0]
	// Strip the -GOMAXPROCS suffix from the final path element.
	if i := strings.LastIndexByte(name, '-'); i > strings.LastIndexByte(name, '/') {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Record{}, false, fmt.Errorf("benchjson: bad iteration count in %q: %v", line, err)
	}
	rec := Record{
		Name:        name,
		Iterations:  iters,
		BytesPerOp:  -1,
		AllocsPerOp: -1,
	}
	rec.Op, rec.Variant, rec.Scheme, rec.MapSize = splitName(name)
	// Remaining fields come in value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			if rec.NsPerOp, err = strconv.ParseFloat(val, 64); err != nil {
				return Record{}, false, fmt.Errorf("benchjson: bad ns/op in %q: %v", line, err)
			}
		case "B/op":
			if rec.BytesPerOp, err = strconv.ParseInt(val, 10, 64); err != nil {
				return Record{}, false, fmt.Errorf("benchjson: bad B/op in %q: %v", line, err)
			}
		case "allocs/op":
			if rec.AllocsPerOp, err = strconv.ParseInt(val, 10, 64); err != nil {
				return Record{}, false, fmt.Errorf("benchjson: bad allocs/op in %q: %v", line, err)
			}
		}
	}
	if rec.NsPerOp == 0 && rec.Iterations == 0 {
		return Record{}, false, nil
	}
	return rec, true, nil
}

// splitName derives typed labels from a benchmark path: the Benchmark-less
// function name, then per path component a scheme ("afl"/"bigmap"), a map
// size (digits + k/M), or — first unclaimed component — a variant label.
func splitName(name string) (op, variant, scheme, size string) {
	parts := strings.Split(name, "/")
	op = strings.TrimPrefix(parts[0], "Benchmark")
	for _, p := range parts[1:] {
		switch {
		case p == "afl" || p == "bigmap":
			scheme = p
		case isSizeLabel(p):
			size = p
		case variant == "":
			variant = p
		}
	}
	return op, variant, scheme, size
}

// isSizeLabel reports whether s looks like the repo's map-size labels
// (64k, 256k, 2M, 8M).
func isSizeLabel(s string) bool {
	if len(s) < 2 {
		return false
	}
	last := s[len(s)-1]
	if last != 'k' && last != 'M' {
		return false
	}
	for _, r := range s[:len(s)-1] {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
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
