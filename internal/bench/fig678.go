package bench

import (
	"github.com/bigmap/bigmap/internal/fuzzer"
	"github.com/bigmap/bigmap/internal/target"
)

// GridSizes is the map-size sweep of Figures 6, 7 and 8.
var GridSizes = []int{64 << 10, 256 << 10, 2 << 20, 8 << 20}

// GridSchemes compares the two map schemes.
var GridSchemes = []fuzzer.Scheme{fuzzer.SchemeAFL, fuzzer.SchemeBigMap}

// GridResult bundles the shared measurement behind Figures 6, 7 and 8: the
// same grid of runs feeds all three tables, exactly as one campaign per
// configuration feeds all three plots in the paper.
type GridResult struct {
	Cells []Cell
}

// RunFig678Grid measures the full (benchmark, scheme, size) grid once.
func RunFig678Grid(opts Options) (*GridResult, error) {
	opts = opts.withDefaults()
	profiles, err := selectProfiles(target.Profiles(), opts.Benchmarks)
	if err != nil {
		return nil, err
	}
	cells, err := RunGrid(profiles, GridSchemes, GridSizes, opts)
	if err != nil {
		return nil, err
	}
	return &GridResult{Cells: cells}, nil
}

// cell looks up one measurement.
func (g *GridResult) cell(bench string, scheme fuzzer.Scheme, size int) (Cell, bool) {
	for _, c := range g.Cells {
		if c.Benchmark == bench && c.Scheme == scheme && c.MapSize == size {
			return c, true
		}
	}
	return Cell{}, false
}

func (g *GridResult) benchmarks() []string {
	var names []string
	seen := map[string]bool{}
	for _, c := range g.Cells {
		if !seen[c.Benchmark] {
			seen[c.Benchmark] = true
			names = append(names, c.Benchmark)
		}
	}
	return names
}

// Fig6 renders test-case generation throughput per benchmark and map size
// for both schemes, plus the per-size average speedup line the paper quotes
// (0.98x / 1.4x / 4.5x / 33.1x).
func (g *GridResult) Fig6() *Table {
	t := &Table{
		Title: "Figure 6: test case generation throughput (execs/sec)",
		Notes: []string{
			"paper shape: AFL collapses as the map grows; BigMap stays flat",
		},
		Header: []string{"benchmark", "map", "afl", "bigmap", "speedup"},
	}
	speedups := map[int][]float64{}
	for _, name := range g.benchmarks() {
		for _, size := range GridSizes {
			a, okA := g.cell(name, fuzzer.SchemeAFL, size)
			b, okB := g.cell(name, fuzzer.SchemeBigMap, size)
			if !okA || !okB {
				continue
			}
			speedup := 0.0
			if a.Throughput > 0 {
				speedup = b.Throughput / a.Throughput
			}
			speedups[size] = append(speedups[size], speedup)
			t.AddRow(name, fmtSize(size),
				fmtFloat(a.Throughput, 0), fmtFloat(b.Throughput, 0),
				fmtFloat(speedup, 2)+"x")
		}
	}
	for _, size := range GridSizes {
		if vals := speedups[size]; len(vals) > 0 {
			t.AddRow("AVERAGE", fmtSize(size), "", "", fmtFloat(geoMean(vals), 2)+"x")
		}
	}
	return t
}

// Fig7 renders edge coverage per benchmark, scheme and map size at the
// fixed test-case budget.
func (g *GridResult) Fig7() *Table {
	t := &Table{
		Title: "Figure 7: edge coverage with varying map sizes (fixed exec budget)",
		Notes: []string{
			"paper shape: equal budgets give near-equal coverage; AFL's deficit",
			"appears under a TIME budget, where its large-map throughput collapses",
			"(see fig6 throughput and fig8 crashes)",
		},
		Header: []string{"benchmark", "map", "afl-edges", "bigmap-edges"},
	}
	for _, name := range g.benchmarks() {
		for _, size := range GridSizes {
			a, okA := g.cell(name, fuzzer.SchemeAFL, size)
			b, okB := g.cell(name, fuzzer.SchemeBigMap, size)
			if !okA || !okB {
				continue
			}
			t.AddRow(name, fmtSize(size), fmtInt(a.Edges), fmtInt(b.Edges))
		}
	}
	return t
}

// Fig8 renders unique crashes (Crashwalk buckets) per benchmark, scheme and
// map size.
func (g *GridResult) Fig8() *Table {
	t := &Table{
		Title: "Figure 8: unique crashes with varying map sizes (fixed exec budget)",
		Notes: []string{
			"paper shape: 64k->256k improves via collision relief; AFL's 2M/8M",
			"losses appear under a TIME budget due to throughput collapse",
		},
		Header: []string{"benchmark", "map", "afl-crashes", "bigmap-crashes"},
	}
	for _, name := range g.benchmarks() {
		for _, size := range GridSizes {
			a, okA := g.cell(name, fuzzer.SchemeAFL, size)
			b, okB := g.cell(name, fuzzer.SchemeBigMap, size)
			if !okA || !okB {
				continue
			}
			t.AddRow(name, fmtSize(size), fmtInt(a.UniqueCrashes), fmtInt(b.UniqueCrashes))
		}
	}
	return t
}

// Fig7TimeBudget reruns the coverage comparison under a wall-clock budget
// (as the paper's 24-hour campaigns do): every configuration gets the same
// TIME, so AFL's large-map throughput collapse translates into lost
// coverage and crashes. Returns Figure 7- and Figure 8-shaped tables.
func Fig7TimeBudget(opts Options, secondsPerCell float64) (*Table, *Table, error) {
	opts = opts.withDefaults()
	profiles, err := selectProfiles(target.Profiles(), opts.Benchmarks)
	if err != nil {
		return nil, nil, err
	}
	cov := &Table{
		Title:  "Figure 7 (time budget): edge coverage under equal wall-clock time",
		Header: []string{"benchmark", "map", "afl-edges", "bigmap-edges"},
	}
	crashes := &Table{
		Title:  "Figure 8 (time budget): unique crashes under equal wall-clock time",
		Header: []string{"benchmark", "map", "afl-crashes", "bigmap-crashes"},
	}
	for _, p := range profiles {
		b, err := prepare(p, opts)
		if err != nil {
			return nil, nil, err
		}
		for _, size := range GridSizes {
			stats := map[fuzzer.Scheme]fuzzer.Stats{}
			exact := map[fuzzer.Scheme]int{}
			for _, scheme := range GridSchemes {
				f, err := b.fuzzer(b.prog, fuzzer.Config{Scheme: scheme, MapSize: size})
				if err != nil {
					return nil, nil, err
				}
				if err := f.RunFor(secondsToDuration(secondsPerCell)); err != nil {
					return nil, nil, err
				}
				stats[scheme] = f.Stats()
				// The fuzzers' own virgin counts are incomparable across
				// map sizes (collisions merge edges); replay the corpus
				// exactly instead, as the paper does.
				exact[scheme] = exactEdges(b.prog, f)
				opts.progressf("  fig7t %-12s %-7s %-4s exact-edges=%d crashes=%d execs=%d\n",
					p.Name, scheme, fmtSize(size), exact[scheme],
					stats[scheme].UniqueCrashes, stats[scheme].Execs)
			}
			cov.AddRow(p.Name, fmtSize(size),
				fmtInt(exact[fuzzer.SchemeAFL]),
				fmtInt(exact[fuzzer.SchemeBigMap]))
			crashes.AddRow(p.Name, fmtSize(size),
				fmtInt(stats[fuzzer.SchemeAFL].UniqueCrashes),
				fmtInt(stats[fuzzer.SchemeBigMap].UniqueCrashes))
		}
	}
	return cov, crashes, nil
}
