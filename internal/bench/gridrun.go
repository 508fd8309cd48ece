package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// GridSchema identifies the experiments.json layout; bump on incompatible
// changes. Configs carrying a different schema string are rejected before
// any experiment runs.
const GridSchema = "bigmap-grid/v1"

// GridParams are the tunables an experiments.json can set globally
// (defaults) or per experiment. Zero values mean "inherit": experiment
// inherits from defaults, defaults inherit from the package's own defaults
// (Options.withDefaults).
type GridParams struct {
	// Scale scales benchmark programs vs the paper's static edges.
	Scale float64 `json:"scale,omitempty"`
	// Execs is the test-case budget per configuration cell.
	Execs uint64 `json:"execs,omitempty"`
	// Seed is the campaign seed of the first repeat; repeat i runs with
	// Seed+i.
	Seed uint64 `json:"seed,omitempty"`
	// Repeats reruns the whole experiment with consecutive seeds and
	// aggregates numeric cells to mean±stddev (1 = verbatim single run).
	Repeats int `json:"repeats,omitempty"`
	// Seconds is the per-cell wall-clock budget for time-budget
	// experiments (which are not reproducible; see Experiment.Timing).
	Seconds float64 `json:"seconds,omitempty"`
	// MaxSeeds caps the synthesized seed corpus per benchmark.
	MaxSeeds int `json:"max_seeds,omitempty"`
	// Benchmarks restricts the benchmark set (nil = experiment default).
	Benchmarks []string `json:"benchmarks,omitempty"`
}

// GridExperiment is one experiments.json entry: a registered experiment name
// plus parameter overrides and output shaping.
type GridExperiment struct {
	GridParams
	// Name must match an Experiment in Registry().
	Name string `json:"name"`
	// DropColumns removes columns by header name after the run — the
	// mechanism that keeps wall-clock-derived columns (execs/s) out of
	// otherwise deterministic artifacts.
	DropColumns []string `json:"drop_columns,omitempty"`
	// ExpectHeaders, when set, pins the post-drop header of each emitted
	// table (outer index = table order). Any drift — a renamed, added,
	// removed or reordered column — fails the run, so artifact-consuming
	// scripts break loudly at generation time instead of silently
	// misreading columns.
	ExpectHeaders [][]string `json:"expect_headers,omitempty"`
}

// GridConfig is the parsed experiments.json.
type GridConfig struct {
	Schema      string           `json:"schema"`
	Defaults    GridParams       `json:"defaults"`
	Experiments []GridExperiment `json:"experiments"`
}

// ParseGridConfig decodes and validates an experiments.json. Unknown fields
// are rejected so typos ("drop_cols") fail instead of silently doing
// nothing.
func ParseGridConfig(data []byte) (*GridConfig, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var cfg GridConfig
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("grid config: %w", err)
	}
	if cfg.Schema != GridSchema {
		return nil, fmt.Errorf("grid config: schema %q, want %q", cfg.Schema, GridSchema)
	}
	if len(cfg.Experiments) == 0 {
		return nil, fmt.Errorf("grid config: no experiments")
	}
	seen := map[string]bool{}
	for i, e := range cfg.Experiments {
		if e.Name == "" {
			return nil, fmt.Errorf("grid config: experiment %d has no name", i)
		}
		if _, ok := Lookup(e.Name); !ok {
			return nil, fmt.Errorf("grid config: unknown experiment %q", e.Name)
		}
		if seen[e.Name] {
			return nil, fmt.Errorf("grid config: experiment %q listed twice", e.Name)
		}
		seen[e.Name] = true
		if e.Repeats < 0 {
			return nil, fmt.Errorf("grid config: experiment %q: negative repeats", e.Name)
		}
	}
	return &cfg, nil
}

// LoadGridConfig reads and parses an experiments.json from disk.
func LoadGridConfig(path string) (*GridConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseGridConfig(data)
}

// resolve merges experiment overrides onto the config defaults and returns
// the bench options, the per-cell seconds budget and the repeat count.
func (c *GridConfig) resolve(e GridExperiment) (Options, float64, int) {
	pick := func(over, def float64) float64 {
		if over != 0 {
			return over
		}
		return def
	}
	opts := Options{
		Scale:       pick(e.Scale, c.Defaults.Scale),
		ExecsPerRun: e.Execs,
		Seed:        e.Seed,
		MaxSeeds:    e.MaxSeeds,
	}
	if opts.ExecsPerRun == 0 {
		opts.ExecsPerRun = c.Defaults.Execs
	}
	if opts.Seed == 0 {
		opts.Seed = c.Defaults.Seed
	}
	if opts.MaxSeeds == 0 {
		opts.MaxSeeds = c.Defaults.MaxSeeds
	}
	opts.Benchmarks = e.Benchmarks
	if opts.Benchmarks == nil {
		opts.Benchmarks = c.Defaults.Benchmarks
	}
	seconds := pick(e.Seconds, c.Defaults.Seconds)
	if seconds == 0 {
		seconds = 2
	}
	repeats := e.Repeats
	if repeats == 0 {
		repeats = c.Defaults.Repeats
	}
	if repeats == 0 {
		repeats = 1
	}
	return opts, seconds, repeats
}

// dropColumns removes the named columns from a table (header and every row).
// Unknown names are an error: a drop list that no longer matches the table
// is exactly the schema drift the grid is supposed to catch.
func dropColumns(t Table, drop []string) (Table, error) {
	if len(drop) == 0 {
		return t, nil
	}
	unwanted := map[string]bool{}
	for _, d := range drop {
		unwanted[d] = true
	}
	keep := make([]int, 0, len(t.Header))
	for i, h := range t.Header {
		if unwanted[h] {
			delete(unwanted, h)
			continue
		}
		keep = append(keep, i)
	}
	for d := range unwanted {
		return t, fmt.Errorf("drop_columns: column %q not in table %q", d, t.Title)
	}
	out := Table{Title: t.Title, Notes: t.Notes}
	for _, i := range keep {
		out.Header = append(out.Header, t.Header[i])
	}
	for _, row := range t.Rows {
		nr := make([]string, 0, len(keep))
		for _, i := range keep {
			if i < len(row) {
				nr = append(nr, row[i])
			}
		}
		out.Rows = append(out.Rows, nr)
	}
	return out, nil
}

// GridRunResult is the outcome of one RunGridConfig call.
type GridRunResult struct {
	// report aggregates every experiment's tables under the grid.json
	// schema; it is what grid.json holds.
	report *gridReport
	// Files lists every artifact written, outDir-relative, in order.
	Files []string
}

// RunGridConfig executes every experiment in the config and writes the
// artifacts into outDir: per experiment an aligned-text table (<name>.txt)
// and a CSV (<name>.csv), plus one combined grid.json over the whole run.
// Every table is schema-validated (validateTable) and checked against the
// config's expected headers before anything is written, so a drifted
// artifact never reaches disk. With fixed seeds and a config restricted to
// deterministic experiments, consecutive runs produce byte-identical
// artifacts.
func RunGridConfig(cfg *GridConfig, outDir string, progress io.Writer) (*GridRunResult, error) {
	logf := func(format string, args ...any) {
		if progress != nil {
			fmt.Fprintf(progress, format, args...)
		}
	}
	report := &gridReport{Schema: reportSchema}
	var written []string

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}

	for _, e := range cfg.Experiments {
		exp, _ := Lookup(e.Name) // validated by ParseGridConfig
		opts, seconds, repeats := cfg.resolve(e)
		baseSeed := opts.withDefaults().Seed
		if exp.Timing {
			logf("grid: warning: %s measures wall clock; its artifacts will not be reproducible\n", e.Name)
		}
		logf("grid: %s (repeats=%d seed=%d execs=%d scale=%g)\n",
			e.Name, repeats, baseSeed, opts.ExecsPerRun, opts.Scale)

		// One run per repeat, consecutive seeds, each producing the same
		// list of tables.
		perRepeat := make([][]Table, repeats)
		for r := 0; r < repeats; r++ {
			ropts := opts
			ropts.Seed = baseSeed + uint64(r)
			ropts.Progress = progress
			ts, err := exp.Run(ropts, seconds)
			if err != nil {
				return nil, fmt.Errorf("%s (repeat %d): %w", e.Name, r, err)
			}
			for _, t := range ts {
				if t == nil {
					return nil, fmt.Errorf("%s: driver returned a nil table", e.Name)
				}
				kept, err := dropColumns(*t, e.DropColumns)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", e.Name, err)
				}
				perRepeat[r] = append(perRepeat[r], kept)
			}
			if len(perRepeat[r]) != len(perRepeat[0]) {
				return nil, fmt.Errorf("%s: repeat %d emitted %d tables, repeat 0 emitted %d",
					e.Name, r, len(perRepeat[r]), len(perRepeat[0]))
			}
		}

		// Aggregate table-by-table across repeats.
		var aggregated []Table
		for ti := range perRepeat[0] {
			group := make([]Table, repeats)
			for r := range perRepeat {
				group[r] = perRepeat[r][ti]
			}
			agg, err := aggregateTables(group)
			if err != nil {
				return nil, fmt.Errorf("%s: aggregate table %d: %w", e.Name, ti, err)
			}
			switch {
			case exp.Timing:
				agg.Notes = append(agg.Notes, provenance(repeats, baseSeed))
			case repeats > 1:
				agg.Notes = append(agg.Notes, repeatNote(repeats, baseSeed))
			}
			aggregated = append(aggregated, agg)
		}

		// Schema checks before anything touches disk.
		if e.ExpectHeaders != nil && len(e.ExpectHeaders) != len(aggregated) {
			return nil, fmt.Errorf("%s: expect_headers pins %d tables, experiment emitted %d",
				e.Name, len(e.ExpectHeaders), len(aggregated))
		}
		for ti, t := range aggregated {
			if err := validateTable(&t); err != nil {
				return nil, fmt.Errorf("%s: table %d: %w", e.Name, ti, err)
			}
			if e.ExpectHeaders != nil && !slices.Equal(t.Header, e.ExpectHeaders[ti]) {
				return nil, fmt.Errorf("%s: table %d header drifted:\n  have %q\n  want %q",
					e.Name, ti, t.Header, e.ExpectHeaders[ti])
			}
		}

		files, err := writeExperimentArtifacts(outDir, e.Name, aggregated)
		if err != nil {
			return nil, err
		}
		written = append(written, files...)
		report.Tables = append(report.Tables, aggregated...)
	}

	if err := validateReport(report); err != nil {
		return nil, fmt.Errorf("grid report failed schema validation: %w", err)
	}
	gridJSON := filepath.Join(outDir, "grid.json")
	f, err := os.Create(gridJSON)
	if err != nil {
		return nil, err
	}
	if err := report.write(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	written = append(written, "grid.json")
	return &GridRunResult{report: report, Files: written}, nil
}

// writeExperimentArtifacts renders one experiment's aggregated tables as
// <name>.txt (aligned text, as the CLI prints) and <name>.csv.
func writeExperimentArtifacts(outDir, name string, tables []Table) ([]string, error) {
	var txt, csv bytes.Buffer
	for i := range tables {
		t := &tables[i]
		if i > 0 {
			txt.WriteByte('\n')
			csv.WriteByte('\n')
		}
		if err := t.Render(&txt); err != nil {
			return nil, err
		}
		if err := t.RenderCSV(&csv); err != nil {
			return nil, err
		}
	}
	var files []string
	for _, out := range []struct {
		file string
		data []byte
	}{
		{name + ".txt", txt.Bytes()},
		{name + ".csv", csv.Bytes()},
	} {
		if err := os.WriteFile(filepath.Join(outDir, out.file), out.data, 0o644); err != nil {
			return nil, err
		}
		files = append(files, out.file)
	}
	return files, nil
}
