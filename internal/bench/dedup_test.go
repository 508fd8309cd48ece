package bench

import "testing"

func TestDedupBiasSmallRun(t *testing.T) {
	opts := quickOpts()
	opts.Benchmarks = []string{"gvn"}
	tbl, err := DedupBias(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(GridSizes) {
		t.Fatalf("rows = %d, want %d", len(tbl.Rows), len(GridSizes))
	}
	var cw []string
	for _, row := range tbl.Rows {
		if len(row) != 5 {
			t.Fatalf("row shape wrong: %v", row)
		}
		if row[2] == "0" {
			t.Fatalf("no crash inputs synthesized: %v", row)
		}
		cw = append(cw, row[3])
	}
	// The Crashwalk column must be identical across map sizes — it is
	// map-independent by construction.
	for i := 1; i < len(cw); i++ {
		if cw[i] != cw[0] {
			t.Errorf("crashwalk counts vary with map size: %v", cw)
		}
	}
}

func TestRoadblocksSmallRun(t *testing.T) {
	opts := quickOpts()
	opts.Benchmarks = []string{"libxml2"}
	opts.ExecsPerRun = testExecs(2500)
	tbl, err := Roadblocks(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 strategies", len(tbl.Rows))
	}
}

func TestCollAFLSmallRun(t *testing.T) {
	opts := quickOpts()
	opts.Benchmarks = []string{"libpng"}
	opts.ExecsPerRun = testExecs(2000)
	tbl, err := CollAFL(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 configs", len(tbl.Rows))
	}
}

func TestMetricsSmallRun(t *testing.T) {
	opts := quickOpts()
	opts.Benchmarks = []string{"zlib"}
	opts.ExecsPerRun = testExecs(2000)
	tbl, err := Metrics(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 metrics", len(tbl.Rows))
	}
}

func TestEnsembleVsStackingSmallRun(t *testing.T) {
	opts := quickOpts()
	opts.Benchmarks = []string{"sccp"}
	opts.ExecsPerRun = testExecs(3000)
	tbl, err := EnsembleVsStacking(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 configs", len(tbl.Rows))
	}
}

func TestSchedulesSmallRun(t *testing.T) {
	opts := quickOpts()
	opts.Benchmarks = []string{"zlib"}
	opts.ExecsPerRun = testExecs(1500)
	tbl, err := Schedules(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 schedules", len(tbl.Rows))
	}
}
