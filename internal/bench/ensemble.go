package bench

import (
	"github.com/bigmap/bigmap/internal/core"
	"github.com/bigmap/bigmap/internal/fuzzer"
	"github.com/bigmap/bigmap/internal/lafintel"
	"github.com/bigmap/bigmap/internal/parallel"
	"github.com/bigmap/bigmap/internal/target"
)

// EnsembleVsStacking runs the comparison the paper names as future research
// (§VI): ensemble fuzzers run multiple instances with different metrics and
// cross-pollinate, but "unlike BigMap, they do not stack the coverage
// metrics together". At an equal total execution budget the experiment
// measures:
//
//	stacked   — ONE instance, laf-intel + 3-gram on a 2MB BigMap (the
//	            paper's §V-C aggressive composition)
//	ensemble  — ONE parallel campaign of THREE instances (edge / 3-gram /
//	            context) with periodic corpus sync, each instance getting
//	            a third of the budget; once with the ensemble's traditional
//	            small 64kB maps and once with 2MB BigMaps
//
// Coverage is judged with the bias-free exact coverage build over each
// configuration's final corpus, since the configurations count coverage in
// incomparable key spaces.
func EnsembleVsStacking(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	names := opts.Benchmarks
	if len(names) == 0 {
		names = []string{"gvn"}
	}
	profiles, err := selectProfiles(target.CompositionProfiles(), names)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "Ensemble vs stacking (the paper's §VI future-work comparison)",
		Notes: []string{
			"equal TOTAL exec budgets; coverage via the bias-free exact replay",
			"stacked = laf-intel + 3-gram on one 2MB BigMap; ensemble = edge/ngram3/ctx with sync",
		},
		Header: []string{"benchmark", "config", "exact-edges", "crashes", "total-execs"},
	}

	for _, p := range profiles {
		b, err := prepare(p, opts)
		if err != nil {
			return nil, err
		}
		budget := opts.ExecsPerRun

		// Stacked: laf + 3-gram, one instance, full budget.
		lafProg, _ := lafintel.Transform(b.prog, opts.Seed)
		stacked, err := fuzzer.New(lafProg, fuzzer.Config{
			Scheme:         fuzzer.SchemeBigMap,
			MapSize:        2 << 20,
			Seed:           opts.Seed,
			ExecCostFactor: b.costFactor,
			Metric: func(size int) (core.Metric, error) {
				return core.NewNGramMetric(size, 3)
			},
		})
		if err != nil {
			return nil, err
		}
		if err := addSeeds(stacked, b.seeds); err != nil {
			return nil, err
		}
		if err := stacked.RunExecs(budget); err != nil {
			return nil, err
		}
		// Exact coverage of the stacked corpus, replayed on the ORIGINAL
		// program so laf-intel's extra guard blocks don't inflate the
		// comparison.
		edges := exactEdges(b.prog, stacked)
		st := stacked.Stats()
		t.AddRow(p.Name, "stacked", fmtInt(edges), fmtInt(st.UniqueCrashes), fmtInt(int(st.Execs)))
		opts.progressf("  ensemble %-10s stacked edges=%d crashes=%d\n", p.Name, edges, st.UniqueCrashes)

		// Ensembles at two map configurations.
		for _, variant := range []struct {
			name    string
			scheme  fuzzer.Scheme
			mapSize int
		}{
			{"ensemble/64k", fuzzer.SchemeAFL, 64 << 10},
			{"ensemble/2M-bigmap", fuzzer.SchemeBigMap, 2 << 20},
		} {
			ens, err := newEnsemble(b.prog, b.seeds, ensembleMembers(), budget/6, fuzzer.Config{
				Scheme:         variant.scheme,
				MapSize:        variant.mapSize,
				Seed:           opts.Seed,
				ExecCostFactor: b.costFactor,
			})
			if err != nil {
				return nil, err
			}
			if err := ens.RunExecs(budget / 3); err != nil {
				return nil, err
			}
			rep := ens.Report()
			edges := exactEdges(b.prog, ens.Instances()...)
			t.AddRow(p.Name, variant.name, fmtInt(edges),
				fmtInt(rep.UniqueCrashes), fmtInt(int(rep.TotalExecs)))
			opts.progressf("  ensemble %-10s %s edges=%d crashes=%d\n",
				p.Name, variant.name, edges, rep.UniqueCrashes)
		}
	}
	return t, nil
}

// ensembleMembers is the classic heterogeneous trio, one coverage metric
// per instance: plain edges, 3-gram partial paths and context-sensitive
// edges.
func ensembleMembers() []fuzzer.MetricFactory {
	return []fuzzer.MetricFactory{
		func(size int) (core.Metric, error) { return core.NewEdgeMetric(size) },
		func(size int) (core.Metric, error) { return core.NewNGramMetric(size, 3) },
		func(size int) (core.Metric, error) { return core.NewContextMetric(size) },
	}
}

// newEnsemble builds an ensemble as one campaign, one instance per member
// metric, cross-pollinating every syncEvery execs.
func newEnsemble(prog *target.Program, seeds [][]byte, members []fuzzer.MetricFactory, syncEvery uint64, template fuzzer.Config) (*parallel.Campaign, error) {
	return parallel.NewCampaign(prog, parallel.Config{
		Instances: len(members),
		SyncEvery: syncEvery,
		Metrics:   members,
		Fuzzer:    template,
	}, seeds)
}
