package bench

import (
	"github.com/bigmap/bigmap/internal/fuzzer"
	"github.com/bigmap/bigmap/internal/target"
)

// Ablation measures the design choices DESIGN.md calls out:
//
//  1. merged vs split classify+compare (§IV-E: "cuts the cost of
//     (compare + classify) to half")
//  2. BigMap's indirection overhead at AFL's native 64kB map size
//     (paper: 0.98x — i.e. a slight slowdown is acceptable)
//  3. map-size sensitivity of each scheme in isolation
//
// The default benchmark is sqlite3: large enough that its working set
// nearly fills a 64kB map, the regime where the paper says BigMap's extra
// indirection shows.
func Ablation(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	names := opts.Benchmarks
	if len(names) == 0 {
		names = []string{"sqlite3"}
	}
	profiles, err := selectProfiles(target.Profiles(), names)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "Ablation: classify+compare merging and BigMap indirection overhead",
		Notes: []string{
			"throughput in execs/sec at a fixed exec budget",
		},
		Header: []string{"benchmark", "scheme", "map", "classify+compare", "execs/s"},
	}

	type variant struct {
		scheme fuzzer.Scheme
		size   int
		split  bool
	}
	variants := []variant{
		{fuzzer.SchemeAFL, 64 << 10, true},
		{fuzzer.SchemeAFL, 64 << 10, false},
		{fuzzer.SchemeAFL, 2 << 20, true},
		{fuzzer.SchemeAFL, 2 << 20, false},
		{fuzzer.SchemeBigMap, 64 << 10, true},
		{fuzzer.SchemeBigMap, 64 << 10, false},
		{fuzzer.SchemeBigMap, 2 << 20, false},
		{fuzzer.SchemeBigMap, 8 << 20, false},
	}

	for _, p := range profiles {
		b, err := prepare(p, opts)
		if err != nil {
			return nil, err
		}
		for _, v := range variants {
			f, secs, err := b.run(b.prog, fuzzer.Config{
				Scheme:               v.scheme,
				MapSize:              v.size,
				SplitClassifyCompare: v.split,
			})
			if err != nil {
				return nil, err
			}
			throughput := perSecond(f.Execs(), secs)
			mode := "merged"
			if v.split {
				mode = "split"
			}
			t.AddRow(p.Name, string(v.scheme), fmtSize(v.size), mode, fmtFloat(throughput, 0))
			opts.progressf("  ablation %-10s %-7s %-4s %-6s %8.0f execs/s\n",
				p.Name, v.scheme, fmtSize(v.size), mode, throughput)
		}
	}
	return t, nil
}
