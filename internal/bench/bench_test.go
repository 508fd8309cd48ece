package bench

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"github.com/bigmap/bigmap/internal/checkpoint"
	"github.com/bigmap/bigmap/internal/core"
	"github.com/bigmap/bigmap/internal/dictionary"
	"github.com/bigmap/bigmap/internal/fuzzer"
	"github.com/bigmap/bigmap/internal/lafintel"
	"github.com/bigmap/bigmap/internal/target"
)

// quickOpts keeps test experiment cells small.
func quickOpts() Options {
	return Options{
		Scale:       0.02,
		ExecsPerRun: testExecs(1500),
		Seed:        1,
		MaxSeeds:    4,
	}
}

// testExecs is a test's exec budget: n, cut by raceBudgetDivisor under the
// race detector.
func testExecs(n uint64) uint64 { return n / raceBudgetDivisor }

func TestTableRender(t *testing.T) {
	tbl := &Table{
		Title:  "demo",
		Notes:  []string{"a note"},
		Header: []string{"name", "value"},
	}
	tbl.AddRow("alpha", "1.00")
	tbl.AddRow("beta", "12.50")
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"demo", "a note", "name", "alpha", "12.50"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	if err := tbl.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "name,value\n") {
		t.Errorf("CSV header wrong: %q", buf.String())
	}
}

func TestFig2MatchesPaperCurve(t *testing.T) {
	tbl, err := Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(Fig2Keys) {
		t.Fatalf("rows = %d, want %d", len(tbl.Rows), len(Fig2Keys))
	}
	// Rates must decrease along each row (bigger map, fewer collisions).
	for _, row := range tbl.Rows {
		prev := 101.0
		for _, cell := range row[1:] {
			var v float64
			if _, err := parseFloat(cell, &v); err != nil {
				t.Fatalf("bad cell %q", cell)
			}
			if v > prev {
				t.Fatalf("collision rate increased along row %v", row)
			}
			prev = v
		}
	}
}

func TestSelectProfiles(t *testing.T) {
	all := target.Profiles()
	got, err := selectProfiles(all, nil)
	if err != nil || len(got) != len(all) {
		t.Errorf("default selection wrong: %v %d", err, len(got))
	}
	got, err = selectProfiles(all, []string{"zlib", "php"})
	if err != nil || len(got) != 2 || got[0].Name != "zlib" {
		t.Errorf("subset selection wrong: %v %v", err, got)
	}
	if _, err := selectProfiles(all, []string{"nope"}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestRunGridSmall(t *testing.T) {
	profiles, err := selectProfiles(target.Profiles(), []string{"zlib"})
	if err != nil {
		t.Fatal(err)
	}
	opts := quickOpts()
	cells, err := RunGrid(profiles, GridSchemes, []int{64 << 10, 2 << 20}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(cells))
	}
	for _, c := range cells {
		if c.Execs < opts.ExecsPerRun {
			t.Errorf("%s/%s/%s: execs = %d", c.Benchmark, c.Scheme, fmtSize(c.MapSize), c.Execs)
		}
		if c.Throughput <= 0 {
			t.Errorf("%s/%s/%s: zero throughput", c.Benchmark, c.Scheme, fmtSize(c.MapSize))
		}
		if c.Edges == 0 {
			t.Errorf("%s/%s/%s: zero edges", c.Benchmark, c.Scheme, fmtSize(c.MapSize))
		}
	}
}

// TestThroughputShape asserts the paper's headline result on a small grid:
// growing the map from 64kB to 2MB collapses the AFL scheme's throughput but
// barely touches BigMap's, so BigMap's relative speedup at 2MB is large. The
// cells run without the execution charge: the shape is about the fuzzer's
// own per-exec work, which the map operations are part of, and a charge
// would only add the same time to every cell.
func TestThroughputShape(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput shape needs a timed run")
	}
	opts := quickOpts()
	opts.ExecsPerRun = testExecs(4000)
	p, ok := target.ProfileByName("libpng")
	if !ok {
		t.Fatal("no libpng profile")
	}
	b, err := prepare(p, opts.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	b.costNs = 0
	throughput := func(s fuzzer.Scheme, size int) float64 {
		f, secs, err := b.run(b.prog, fuzzer.Config{Scheme: s, MapSize: size})
		if err != nil {
			t.Fatal(err)
		}
		return perSecond(f.Execs(), secs)
	}
	aflDrop := throughput(fuzzer.SchemeAFL, 64<<10) / throughput(fuzzer.SchemeAFL, 2<<20)
	bigDrop := throughput(fuzzer.SchemeBigMap, 64<<10) / throughput(fuzzer.SchemeBigMap, 2<<20)
	if aflDrop < 2 {
		t.Errorf("AFL 64k->2M slowdown = %.2fx, want >= 2x", aflDrop)
	}
	if bigDrop > 2 {
		t.Errorf("BigMap 64k->2M slowdown = %.2fx, want <= 2x", bigDrop)
	}
	if aflDrop <= bigDrop {
		t.Errorf("AFL slowdown %.2fx should exceed BigMap slowdown %.2fx", aflDrop, bigDrop)
	}
}

func TestFig3SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second campaign run")
	}
	opts := quickOpts()
	opts.Benchmarks = []string{"zlib"}
	tbl, err := Fig3(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(Fig3Sizes) {
		t.Fatalf("rows = %d, want %d", len(tbl.Rows), len(Fig3Sizes))
	}
	// The total column must grow with map size (AFL scheme), and each row's
	// five phase columns (execution, classify, compare, reset, hash) must
	// sum to it within rounding: every cell is printed to one decimal.
	var prev float64
	for i, row := range tbl.Rows {
		var v [6]float64
		for j := range v {
			if _, err := parseFloat(row[2+j], &v[j]); err != nil {
				t.Fatalf("bad cell %q in row %v", row[2+j], row)
			}
		}
		total, hash := v[5], v[4]
		sum := v[0] + v[1] + v[2] + v[3] + v[4]
		if math.Abs(sum-total) > 6*0.05+1e-9 {
			t.Errorf("%s: phases sum to %.1f, total is %.1f", row[1], sum, total)
		}
		if hash <= 0 {
			t.Errorf("%s: hash column is zero: %v", row[1], row)
		}
		if i > 0 && total < prev {
			t.Errorf("total time shrank as map grew: %v", tbl.Rows)
		}
		prev = total
	}
}

func TestTable2SmallRun(t *testing.T) {
	opts := quickOpts()
	opts.Benchmarks = []string{"zlib", "libpng"}
	tbl, err := Table2(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if tbl.Rows[0][0] != "zlib" || tbl.Rows[0][8] != "v1.2.11" {
		t.Errorf("row payload wrong: %v", tbl.Rows[0])
	}
}

func TestTable3SmallRun(t *testing.T) {
	opts := quickOpts()
	opts.Benchmarks = []string{"sccp"}
	tbl, err := Table3(opts)
	if err != nil {
		t.Fatal(err)
	}
	// One benchmark row plus the AVERAGE row.
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tbl.Rows))
	}
	if tbl.Rows[1][0] != "AVERAGE" {
		t.Errorf("missing AVERAGE row: %v", tbl.Rows)
	}
}

func TestScalingSmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling test runs multi-second campaigns")
	}
	opts := quickOpts()
	opts.Benchmarks = []string{"zlib"}
	opts.ExecsPerRun = testExecs(4000)
	// Shrink the sweep for the test.
	old := ScalingInstances
	ScalingInstances = []int{1, 2}
	defer func() { ScalingInstances = old }()

	res, err := RunScaling(opts, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.cells) != 4 { // 1 bench x 2 schemes x 2 instance counts
		t.Fatalf("cells = %d, want 4", len(res.cells))
	}
	for _, tbl := range []*Table{res.Fig9a(), res.Fig9b(), res.Fig10()} {
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: empty", tbl.Title)
		}
	}
}

func TestAblationSmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second campaign run")
	}
	opts := quickOpts()
	opts.Benchmarks = []string{"zlib"}
	tbl, err := Ablation(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 8 {
		t.Fatalf("rows = %d, want 8 variants", len(tbl.Rows))
	}
}

func TestFmtSize(t *testing.T) {
	tests := map[int]string{
		64 << 10: "64k",
		2 << 20:  "2M",
		8 << 20:  "8M",
		512:      "512",
	}
	for in, want := range tests {
		if got := fmtSize(in); got != want {
			t.Errorf("fmtSize(%d) = %q, want %q", in, got, want)
		}
	}
}

// parseFloat parses a table cell as a float.
func parseFloat(s string, out *float64) (int, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	*out = v
	return 1, nil
}

// TestBencherRunMatchesHandBuiltFuzzer pins the cell runner to the
// sequence every driver used to write out: fuzzer.New with the campaign
// seed, AddSeeds, RunExecs. The campaigns must end in the same
// checkpoint bytes, so the timing drivers (fig3, ablation, fig7t), which
// results/ does not cover, still run the campaigns they ran before.
func TestBencherRunMatchesHandBuiltFuzzer(t *testing.T) {
	opts := quickOpts()
	opts.ExecsPerRun = testExecs(1000)
	b, err := prepare(target.Profiles()[0], opts.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	laf, _ := lafintel.Transform(b.prog, opts.Seed)
	cfg := fuzzer.Config{
		Scheme:  fuzzer.SchemeBigMap,
		MapSize: 1 << 20,
		Metric: func(size int) (core.Metric, error) {
			return core.NewNGramMetric(size, 3)
		},
		SplitClassifyCompare: true,
		EnableCmpLog:         true,
		Dict:                 dictionary.Data(dictionary.Extract(laf)),
	}

	hand := cfg
	hand.Seed = opts.Seed
	want, err := fuzzer.New(laf, hand)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := want.AddSeeds(b.seeds); err != nil {
		t.Fatal(err)
	}
	if err := want.RunExecs(opts.ExecsPerRun); err != nil {
		t.Fatal(err)
	}

	got, secs, err := b.run(laf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Execs() < opts.ExecsPerRun || secs <= 0 {
		t.Fatalf("run: execs=%d seconds=%v, want >= %d execs in positive time", got.Execs(), secs, opts.ExecsPerRun)
	}
	// All but the few seed dry runs' share of the charge falls inside the
	// budget, so the seconds must count it.
	if got.Charged() <= 0 || secs < 0.9*got.Charged().Seconds() {
		t.Fatalf("run charged %v in %vs: want the calibrated charge, counted in the seconds", got.Charged(), secs)
	}
	if !bytes.Equal(checkpoint.EncodeFuzzer(got.Snapshot()), checkpoint.EncodeFuzzer(want.Snapshot())) {
		t.Fatal("bencher.run campaign diverged from the hand-built fuzzer's")
	}
}

func TestFig7TimeBudgetSmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("time-budget cells need wall-clock runs")
	}
	opts := quickOpts()
	opts.Benchmarks = []string{"zlib"}
	// Shrink the size sweep for the test.
	old := GridSizes
	GridSizes = []int{64 << 10, 2 << 20}
	defer func() { GridSizes = old }()

	cov, crashes, err := Fig7TimeBudget(opts, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if len(cov.Rows) != 2 || len(crashes.Rows) != 2 {
		t.Fatalf("rows = %d/%d, want 2/2", len(cov.Rows), len(crashes.Rows))
	}
	// Under a time budget the AFL scheme's 2M coverage must not exceed its
	// 64k coverage by much — its throughput collapse caps exploration.
	var afl64, afl2M float64
	if _, err := parseFloat(cov.Rows[0][2], &afl64); err != nil {
		t.Fatal(err)
	}
	if _, err := parseFloat(cov.Rows[1][2], &afl2M); err != nil {
		t.Fatal(err)
	}
	if afl2M > afl64*1.5 {
		t.Errorf("AFL@2M coverage %v implausibly exceeds AFL@64k %v under a time budget", afl2M, afl64)
	}
}
