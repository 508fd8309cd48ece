package bench

import (
	"github.com/bigmap/bigmap/internal/dictionary"
	"github.com/bigmap/bigmap/internal/fuzzer"
	"github.com/bigmap/bigmap/internal/lafintel"
	"github.com/bigmap/bigmap/internal/target"
)

// Roadblocks is an extension experiment beyond the paper: it compares the
// three ways this repository can get a fuzzer past multi-byte magic-value
// comparisons, all on a BigMap so map size is never the bottleneck:
//
//	plain    — havoc only (the roadblock stands)
//	dict     — statically harvested comparison operands as dictionary tokens
//	laf      — laf-intel splitting (the paper's §V-C ingredient): feedback
//	           rewards partial matches, at the cost of edge amplification
//	cmplog   — RedQueen-style input-to-state patching (AFL++'s alternative;
//	           the related-work's CompareCoverage [34] family)
//
// The output reports discovered coverage and solved magic gates per
// strategy. laf-intel additionally reports its static-edge amplification —
// the map pressure that motivates BigMap in the first place.
func Roadblocks(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	names := opts.Benchmarks
	if len(names) == 0 {
		names = []string{"libxml2"}
	}
	profiles, err := selectProfiles(target.Profiles(), names)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "Roadblocks (extension): strategies against magic-value comparisons",
		Notes: []string{
			"all runs BigMap @ 2MB; equal exec budgets; edge metric",
			"laf amplifies static edges; cmplog and dict leave them unchanged",
		},
		Header: []string{"benchmark", "strategy", "edges", "paths", "static-edges"},
	}

	for _, p := range profiles {
		b, err := prepare(p, opts)
		if err != nil {
			return nil, err
		}
		lafProg, lafStats := lafintel.Transform(b.prog, opts.Seed)
		dict := dictionary.Data(dictionary.Extract(b.prog))

		type strategy struct {
			name string
			prog *target.Program
			cfg  fuzzer.Config
		}
		base := fuzzer.Config{Scheme: fuzzer.SchemeBigMap, MapSize: 2 << 20}
		withDict := base
		withDict.Dict = dict
		withCmp := base
		withCmp.EnableCmpLog = true

		strategies := []strategy{
			{name: "plain", prog: b.prog, cfg: base},
			{name: "dict", prog: b.prog, cfg: withDict},
			{name: "laf", prog: lafProg, cfg: base},
			{name: "cmplog", prog: b.prog, cfg: withCmp},
		}
		for _, s := range strategies {
			f, _, err := b.run(s.prog, s.cfg)
			if err != nil {
				return nil, err
			}
			st := f.Stats()
			t.AddRow(p.Name, s.name, fmtInt(st.EdgesDiscovered), fmtInt(st.Paths),
				fmtInt(s.prog.StaticEdges()))
			opts.progressf("  roadblocks %-10s %-7s edges=%d paths=%d\n",
				p.Name, s.name, st.EdgesDiscovered, st.Paths)
		}
		t.Notes = append(t.Notes,
			"laf amplification on "+p.Name+": "+
				fmtInt(lafStats.StaticEdgesBefore)+" -> "+fmtInt(lafStats.StaticEdgesAfter)+" static edges")
	}
	return t, nil
}
