package bench

import (
	"github.com/bigmap/bigmap/internal/collafl"
	"github.com/bigmap/bigmap/internal/core"
	"github.com/bigmap/bigmap/internal/fuzzer"
	"github.com/bigmap/bigmap/internal/target"
)

// CollAFL is the related-work comparison of §VI: CollAFL eliminates hash
// collisions by assigning static edge IDs, but must size its (flat) bitmap
// to the full static edge count even though only a fraction is ever visited
// — reintroducing the very overhead BigMap removes. The experiment measures
// four configurations at equal exec budgets:
//
//	afl-hash/64k       — vanilla AFL: small map, collisions
//	collafl/flat       — collision-free IDs over a flat map sized to the
//	                     static edge count (CollAFL as published)
//	collafl/bigmap     — the paper's suggested synthesis: collision-free IDs
//	                     over a two-level map (§VI: "can also be used in
//	                     combination")
//	afl-hash/bigmap-2M — BigMap alone with hashed IDs on a large map
func CollAFL(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	names := opts.Benchmarks
	if len(names) == 0 {
		names = []string{"gvn"}
	}
	profiles, err := selectProfiles(target.Profiles(), names)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "CollAFL comparison (§VI related work)",
		Notes: []string{
			"equal exec budgets; throughput in execs/sec",
			"paper point: CollAFL's flat map pays for ALL static edges; BigMap pays for visited ones",
		},
		Header: []string{"benchmark", "config", "map", "execs/s", "edges", "collisions"},
	}

	for _, p := range profiles {
		b, err := prepare(p, opts)
		if err != nil {
			return nil, err
		}
		assign, err := collafl.Assign(b.prog)
		if err != nil {
			return nil, err
		}

		collaflMetric := func(int) (core.Metric, error) { return assign.NewMetric(), nil }
		type config struct {
			name    string
			scheme  fuzzer.Scheme
			mapSize int
			metric  fuzzer.MetricFactory
		}
		configs := []config{
			{name: "afl-hash/64k", scheme: fuzzer.SchemeAFL, mapSize: 64 << 10},
			{name: "collafl/flat", scheme: fuzzer.SchemeAFL, mapSize: assign.MapSize(), metric: collaflMetric},
			{name: "collafl/bigmap", scheme: fuzzer.SchemeBigMap, mapSize: assign.MapSize(), metric: collaflMetric},
			{name: "afl-hash/bigmap-2M", scheme: fuzzer.SchemeBigMap, mapSize: 2 << 20},
		}
		for _, c := range configs {
			f, secs, err := b.run(b.prog, fuzzer.Config{Scheme: c.scheme, MapSize: c.mapSize, Metric: c.metric})
			if err != nil {
				return nil, err
			}
			st := f.Stats()
			throughput := perSecond(st.Execs, secs)
			collisions := "hash"
			if c.metric != nil {
				collisions = "none"
			}
			t.AddRow(p.Name, c.name, fmtSize(c.mapSize),
				fmtFloat(throughput, 0), fmtInt(st.EdgesDiscovered), collisions)
			opts.progressf("  collafl %-10s %-18s %8.0f execs/s edges=%d\n",
				p.Name, c.name, throughput, st.EdgesDiscovered)
		}
	}
	return t, nil
}
