package bench

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func TestParseGridConfigRejects(t *testing.T) {
	cases := []struct {
		name, json, want string
	}{
		{"bad schema", `{"schema":"nope","experiments":[{"name":"fig2"}]}`, "schema"},
		{"no experiments", `{"schema":"bigmap-grid/v1","experiments":[]}`, "no experiments"},
		{"unnamed", `{"schema":"bigmap-grid/v1","experiments":[{}]}`, "no name"},
		{"unknown experiment", `{"schema":"bigmap-grid/v1","experiments":[{"name":"fig99"}]}`, "unknown experiment"},
		{"duplicate", `{"schema":"bigmap-grid/v1","experiments":[{"name":"fig2"},{"name":"fig2"}]}`, "twice"},
		{"negative repeats", `{"schema":"bigmap-grid/v1","experiments":[{"name":"fig2","repeats":-1}]}`, "negative repeats"},
		{"unknown field", `{"schema":"bigmap-grid/v1","experiments":[{"name":"fig2","drop_cols":["x"]}]}`, "unknown field"},
		{"not json", `{"schema":`, "grid config"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseGridConfig([]byte(c.json))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v, want substring %q", err, c.want)
			}
		})
	}
}

func TestParseGridConfigAccepts(t *testing.T) {
	cfg, err := ParseGridConfig([]byte(`{
		"schema": "bigmap-grid/v1",
		"defaults": {"scale": 0.02, "execs": 100, "seed": 7, "repeats": 2},
		"experiments": [{"name": "fig2"}, {"name": "collafl", "execs": 50, "drop_columns": ["execs/s"]}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	opts, _, repeats := cfg.resolve(cfg.Experiments[0])
	if opts.Scale != 0.02 || opts.ExecsPerRun != 100 || opts.Seed != 7 || repeats != 2 {
		t.Errorf("defaults not inherited: %+v repeats=%d", opts, repeats)
	}
	opts, _, _ = cfg.resolve(cfg.Experiments[1])
	if opts.ExecsPerRun != 50 {
		t.Errorf("override lost: execs=%d", opts.ExecsPerRun)
	}
}

func TestDropColumns(t *testing.T) {
	in := tableJSON{
		Title:  "t",
		Header: []string{"a", "b", "c"},
		Rows:   [][]string{{"1", "2", "3"}, {"4", "5", "6"}},
	}
	out, err := dropColumns(in, []string{"b"})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Header) != 2 || out.Header[0] != "a" || out.Header[1] != "c" {
		t.Fatalf("header = %v", out.Header)
	}
	if out.Rows[1][1] != "6" {
		t.Fatalf("rows = %v", out.Rows)
	}
	if _, err := dropColumns(in, []string{"nope"}); err == nil {
		t.Fatal("unknown drop column accepted")
	}
	// No drop list: table passes through untouched.
	same, err := dropColumns(in, nil)
	if err != nil || len(same.Header) != 3 {
		t.Fatalf("nil drop altered table: %v %v", same.Header, err)
	}
}

// TestRunGridConfigEndToEnd runs the cheapest real experiment (fig2 is pure
// math) through the full pipeline twice and checks artifact set, schema
// validity of grid.json, header pinning, and byte-for-byte reproducibility.
func TestRunGridConfigEndToEnd(t *testing.T) {
	cfg, err := ParseGridConfig([]byte(`{
		"schema": "bigmap-grid/v1",
		"experiments": [{"name": "fig2"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	read := func(dir string) map[string]string {
		res, err := RunGridConfig(cfg, dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := validateReport(res.report); err != nil {
			t.Fatalf("report invalid: %v", err)
		}
		want := []string{"fig2.txt", "fig2.csv", "grid.json"}
		if len(res.Files) != len(want) {
			t.Fatalf("files = %v, want %v", res.Files, want)
		}
		out := map[string]string{}
		for _, f := range want {
			data, err := os.ReadFile(filepath.Join(dir, f))
			if err != nil {
				t.Fatal(err)
			}
			if len(data) == 0 {
				t.Fatalf("%s is empty", f)
			}
			out[f] = string(data)
		}
		return out
	}
	a := read(t.TempDir())
	b := read(t.TempDir())
	for f := range a {
		if a[f] != b[f] {
			t.Errorf("%s not reproducible across runs", f)
		}
	}
}

// TestRunGridConfigHeaderDrift pins the failure mode: a drifted header must
// error out before any artifact is written.
func TestRunGridConfigHeaderDrift(t *testing.T) {
	cfg, err := ParseGridConfig([]byte(`{
		"schema": "bigmap-grid/v1",
		"experiments": [{"name": "fig2", "expect_headers": [["wrong", "columns"]]}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := RunGridConfig(cfg, dir, nil); err == nil || !strings.Contains(err.Error(), "drifted") {
		t.Fatalf("want header-drift error, got %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("drift run left artifacts behind: %v", entries)
	}
}

func TestRegistryLookup(t *testing.T) {
	names := map[string]bool{}
	for _, e := range Registry() {
		if e.Name == "" || e.Run == nil {
			t.Fatalf("malformed registry entry %+v", e)
		}
		if names[e.Name] {
			t.Fatalf("duplicate registry name %q", e.Name)
		}
		names[e.Name] = true
	}
	for _, want := range []string{"fig2", "fig78", "table3", "schedules"} {
		if _, ok := Lookup(want); !ok {
			t.Errorf("registry missing %q", want)
		}
	}
	if _, ok := Lookup("fig99"); ok {
		t.Error("bogus lookup succeeded")
	}
	if _, err := RunExperiment("fig99", Options{}, 0); err == nil {
		t.Error("RunExperiment on unknown name succeeded")
	}
}

// TestRunGridConfigRepeats runs the only repeat path end to end: a wall-clock
// experiment (fig6) and the deterministic experiment over the same campaigns
// (fig78), each repeated over two seeds. Throughput aggregates to mean±stddev;
// fig6's coverage and crash tables equal fig78's, so no wall-clock figure
// leaks into a deterministic column; and only the wall-clock tables carry
// the provenance note, naming both seeds, the machine and the commit.
func TestRunGridConfigRepeats(t *testing.T) {
	old := GridSizes
	GridSizes = []int{64 << 10, 2 << 20}
	defer func() { GridSizes = old }()

	cfg, err := ParseGridConfig([]byte(`{
		"schema": "bigmap-grid/v1",
		"defaults": {"scale": 0.02, "execs": ` + strconv.FormatUint(testExecs(600), 10) + `, "seed": 5, "repeats": 2,
			"max_seeds": 4, "benchmarks": ["zlib"]},
		"experiments": [{"name": "fig6"}, {"name": "fig78"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunGridConfig(cfg, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tables := res.report.Tables
	if len(tables) != 5 {
		t.Fatalf("tables = %d, want fig6's 3 and fig78's 2", len(tables))
	}
	fig6, fig78 := tables[:3], tables[3:]

	spread := map[int]bool{}
	for _, row := range fig6[0].Rows {
		for _, col := range []int{2, 3} { // afl, bigmap execs/s
			if strings.Contains(row[col], "±") {
				spread[col] = true
			}
		}
	}
	if !spread[2] || !spread[3] {
		t.Errorf("throughput columns carry no ±: %v", fig6[0].Rows)
	}
	for i, want := range fig78 {
		if got := fig6[i+1]; got.Title != want.Title || !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("fig6 table %q differs from fig78's:\n  fig6  %v\n  fig78 %v", got.Title, got.Rows, want.Rows)
		}
	}

	stamp := provenance(2, 5)
	for _, want := range []string{"seeds 5..6", cpuModel(), "commit " + buildCommit()} {
		if !strings.Contains(stamp, want) {
			t.Errorf("provenance note %q does not name %q", stamp, want)
		}
	}
	for _, tbl := range fig6 {
		if n := len(tbl.Notes); n == 0 || tbl.Notes[n-1] != stamp {
			t.Errorf("%s: notes %q do not end with %q", tbl.Title, tbl.Notes, stamp)
		}
	}
	for _, tbl := range fig78 {
		for _, n := range tbl.Notes {
			if strings.Contains(n, "commit") {
				t.Errorf("%s: deterministic table stamped: %q", tbl.Title, n)
			}
		}
	}
}

// TestRunExperimentStampsTimingOnly: RunExperiment, the path of every
// per-figure CLI run and of `all`, stamps a wall-clock experiment's tables
// and leaves a deterministic one's untouched.
func TestRunExperimentStampsTimingOnly(t *testing.T) {
	old := GridSizes
	GridSizes = []int{64 << 10}
	defer func() { GridSizes = old }()

	opts := quickOpts()
	opts.Benchmarks = []string{"zlib"}
	timed, err := RunExperiment("fig7t", opts, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	stamp := provenance(1, opts.Seed)
	for _, tbl := range timed {
		if n := len(tbl.Notes); n == 0 || tbl.Notes[n-1] != stamp {
			t.Errorf("%s: notes %q do not end with %q", tbl.Title, tbl.Notes, stamp)
		}
	}

	plain, err := RunExperiment("fig2", opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain[0].Notes, want.Notes) {
		t.Errorf("deterministic fig2 notes changed: %q, want %q", plain[0].Notes, want.Notes)
	}
}
