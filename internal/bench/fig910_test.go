package bench

import (
	"strings"
	"testing"

	"github.com/bigmap/bigmap/internal/fuzzer"
)

// syntheticScaling builds a ScalingResult by hand so the table math can be
// checked without running campaigns.
func syntheticScaling() *ScalingResult {
	mk := func(scheme fuzzer.Scheme, n int, execs uint64, crashes int) scalingCell {
		return scalingCell{
			bench:      "demo",
			scheme:     scheme,
			instances:  n,
			totalExecs: execs,
			seconds:    1.0,
			crashes:    crashes,
		}
	}
	return &ScalingResult{cells: []scalingCell{
		mk(fuzzer.SchemeAFL, 1, 1000, 1),
		mk(fuzzer.SchemeAFL, 4, 2000, 1),
		mk(fuzzer.SchemeBigMap, 1, 10000, 2),
		mk(fuzzer.SchemeBigMap, 4, 38000, 5),
	}}
}

func TestFig9aNormalization(t *testing.T) {
	old := ScalingInstances
	ScalingInstances = []int{1, 4}
	defer func() { ScalingInstances = old }()

	tbl := syntheticScaling().Fig9a()
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// n=1 rows normalize to 1.00 for both schemes.
	if tbl.Rows[0][3] != "1.00" || tbl.Rows[0][4] != "1.00" {
		t.Errorf("n=1 normalization wrong: %v", tbl.Rows[0])
	}
	// n=4: afl 2000/1000 = 2.00; bigmap 38000/10000 = 3.80.
	if tbl.Rows[1][3] != "2.00" || tbl.Rows[1][4] != "3.80" {
		t.Errorf("n=4 normalization wrong: %v", tbl.Rows[1])
	}
}

func TestFig9bSpeedups(t *testing.T) {
	old := ScalingInstances
	ScalingInstances = []int{1, 4}
	defer func() { ScalingInstances = old }()

	tbl := syntheticScaling().Fig9b()
	// demo rows then AVERAGE rows.
	var got []string
	for _, row := range tbl.Rows {
		got = append(got, strings.Join(row, "|"))
	}
	// n=1: 10000/1000 = 10x; n=4: 38000/2000 = 19x.
	if tbl.Rows[0][2] != "10.00x" || tbl.Rows[1][2] != "19.00x" {
		t.Errorf("speedups wrong: %v", got)
	}
}

func TestFig10Counts(t *testing.T) {
	old := ScalingInstances
	ScalingInstances = []int{1, 4}
	defer func() { ScalingInstances = old }()

	tbl := syntheticScaling().Fig10()
	if tbl.Rows[1][2] != "1" || tbl.Rows[1][3] != "5" {
		t.Errorf("crash columns wrong: %v", tbl.Rows)
	}
}

// syntheticGrid exercises the Figure 6/7/8 table builders without runs.
func syntheticGrid() *GridResult {
	mk := func(scheme fuzzer.Scheme, size int, tput float64, edges, crashes int) Cell {
		return Cell{
			Benchmark: "demo", Scheme: scheme, MapSize: size,
			Execs: 1000, Throughput: tput,
			Edges: edges, UniqueCrashes: crashes,
		}
	}
	return &GridResult{Cells: []Cell{
		mk(fuzzer.SchemeAFL, 64<<10, 5000, 100, 1),
		mk(fuzzer.SchemeBigMap, 64<<10, 5000, 100, 1),
		mk(fuzzer.SchemeAFL, 2<<20, 500, 98, 0),
		mk(fuzzer.SchemeBigMap, 2<<20, 5000, 101, 2),
	}}
}

func TestFig6TableMath(t *testing.T) {
	old := GridSizes
	GridSizes = []int{64 << 10, 2 << 20}
	defer func() { GridSizes = old }()

	tbl := syntheticGrid().Fig6()
	// demo 64k speedup 1.00x, 2M speedup 10.00x, then AVERAGE rows.
	if tbl.Rows[0][4] != "1.00x" || tbl.Rows[1][4] != "10.00x" {
		t.Errorf("speedups wrong: %v", tbl.Rows)
	}
	foundAvg := false
	for _, row := range tbl.Rows {
		if row[0] == "AVERAGE" && row[1] == "2M" {
			foundAvg = true
			if row[4] != "10.00x" {
				t.Errorf("2M average = %v", row)
			}
		}
	}
	if !foundAvg {
		t.Error("missing AVERAGE rows")
	}
}

func TestFig7Fig8Tables(t *testing.T) {
	old := GridSizes
	GridSizes = []int{64 << 10, 2 << 20}
	defer func() { GridSizes = old }()

	g := syntheticGrid()
	f7 := g.Fig7()
	if f7.Rows[1][2] != "98" || f7.Rows[1][3] != "101" {
		t.Errorf("fig7 rows wrong: %v", f7.Rows)
	}
	f8 := g.Fig8()
	if f8.Rows[1][2] != "0" || f8.Rows[1][3] != "2" {
		t.Errorf("fig8 rows wrong: %v", f8.Rows)
	}
}
