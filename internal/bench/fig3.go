package bench

import (
	"fmt"

	"github.com/bigmap/bigmap/internal/fuzzer"
	"github.com/bigmap/bigmap/internal/target"
	"github.com/bigmap/bigmap/internal/telemetry"
)

// Fig3Benchmarks is the benchmark set of the paper's Figure 3.
var Fig3Benchmarks = []string{"libpng", "sqlite3", "gvn", "bloaty", "openssl", "php"}

// Fig3Sizes is the map-size sweep of Figure 3.
var Fig3Sizes = []int{64 << 10, 2 << 20, 8 << 20}

// Fig3 regenerates Figure 3: the per-phase runtime composition of a vanilla
// AFL (flat map, split classify/compare) fuzzing run as the map grows. The
// paper reports hours per one million test cases; we run opts.ExecsPerRun
// cases and normalize to the per-million figure.
//
// The phases are read from the telemetry histograms (fuzzer_exec_ns and
// map_afl_<op>_ns) of a registry private to each cell, so every counted
// execution, trim runs included, is timed exactly once. The execution
// column adds the cell's charged execution time (Fuzzer.Charged) to the
// interpreter's measured fuzzer_exec_ns.
func Fig3(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	names := opts.Benchmarks
	if len(names) == 0 {
		names = Fig3Benchmarks
	}
	profiles, err := selectProfiles(target.Profiles(), names)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "Figure 3: runtime composition with varying bitmap sizes (AFL scheme)",
		Notes: []string{
			fmt.Sprintf("seconds per 1M test cases, measured over %d execs at scale %g",
				opts.ExecsPerRun, opts.Scale),
			"paper shape: map operations dominate for 2M/8M maps",
		},
		Header: []string{"benchmark", "map", "execution", "classify", "compare", "reset", "hash", "total"},
	}

	for _, p := range profiles {
		b, err := prepare(p, opts)
		if err != nil {
			return nil, err
		}
		for _, size := range Fig3Sizes {
			reg := telemetry.New()
			f, _, err := b.run(b.prog, fuzzer.Config{
				Scheme:               fuzzer.SchemeAFL,
				MapSize:              size,
				SplitClassifyCompare: true,
				Telemetry:            reg,
			})
			if err != nil {
				return nil, err
			}
			st := f.Stats()
			hist := reg.Snapshot().Histograms
			phases := []uint64{
				hist["fuzzer_exec_ns"].Sum + uint64(f.Charged()),
				hist["map_afl_classify_ns"].Sum,
				hist["map_afl_compare_ns"].Sum,
				hist["map_afl_reset_ns"].Sum,
				hist["map_afl_hash_ns"].Sum,
			}
			perM := 1e6 / float64(st.Execs)
			row := []string{p.Name, fmtSize(size)}
			var total uint64
			for _, ns := range phases {
				row = append(row, fmtFloat(float64(ns)/1e9*perM, 1))
				total += ns
			}
			t.AddRow(append(row, fmtFloat(float64(total)/1e9*perM, 1))...)
			opts.progressf("  fig3 %-12s %-4s done (%d execs)\n", p.Name, fmtSize(size), st.Execs)
		}
	}
	return t, nil
}
