package bench

import (
	"github.com/bigmap/bigmap/internal/collision"
	"github.com/bigmap/bigmap/internal/fuzzer"
	"github.com/bigmap/bigmap/internal/target"
)

// Table2 regenerates Table II: benchmark characteristics. For each profile
// it reports the paper's numbers alongside the synthetic reproduction's
// measured values: static edges of the generated program, edges discovered
// by a BigMap fuzzing run (BigMap so map overhead does not distort the
// discovery budget), and the Equation 1 collision rate those discovered
// edges imply on a 64kB map.
func Table2(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	profiles, err := selectProfiles(target.Profiles(), opts.Benchmarks)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "Table II: benchmark characteristics (paper vs this reproduction)",
		Notes: []string{
			"paper columns from the publication; ours measured at scale",
			"collision rate is Equation 1 at a 64kB map over discovered edges",
		},
		Header: []string{
			"benchmark", "seeds",
			"disc-edges(paper)", "disc-edges(ours)",
			"coll%(paper)", "coll%(ours)",
			"static(paper)", "static(ours)",
			"version",
		},
	}

	for _, p := range profiles {
		b, err := prepare(p, opts)
		if err != nil {
			return nil, err
		}
		f, _, err := b.run(b.prog, fuzzer.Config{Scheme: fuzzer.SchemeBigMap, MapSize: 2 << 20})
		if err != nil {
			return nil, err
		}
		st := f.Stats()
		rate, err := collision.Rate(64<<10, max(st.EdgesDiscovered, 1))
		if err != nil {
			return nil, err
		}
		t.AddRow(
			p.Name, fmtInt(p.SeedCount),
			fmtInt(p.PaperDiscoveredEdges), fmtInt(st.EdgesDiscovered),
			fmtFloat(p.PaperCollisionRate, 2), fmtFloat(rate*100, 2),
			fmtInt(p.PaperStaticEdges), fmtInt(b.prog.StaticEdges()),
			p.Version,
		)
		opts.progressf("  table2 %-16s done\n", p.Name)
	}
	return t, nil
}
