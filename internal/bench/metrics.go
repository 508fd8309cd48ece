package bench

import (
	"fmt"

	"github.com/bigmap/bigmap/internal/collision"
	"github.com/bigmap/bigmap/internal/core"
	"github.com/bigmap/bigmap/internal/fuzzer"
	"github.com/bigmap/bigmap/internal/target"
)

// Metrics measures coverage-metric map pressure, the effect the paper's §VI
// related work discusses: more expressive metrics (N-gram, context-sensitive
// edges) generate many more distinct coverage keys than plain edge coverage
// — Angora's context coverage puts "up to eight times more pressure on the
// bitmap" — which is precisely what makes large (BigMap-backed) maps
// necessary. For each metric the experiment reports the distinct keys
// discovered at a fixed budget and the Equation 1 collision rate those keys
// would suffer on a 64kB map.
func Metrics(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	names := opts.Benchmarks
	if len(names) == 0 {
		names = []string{"sqlite3"}
	}
	profiles, err := selectProfiles(target.Profiles(), names)
	if err != nil {
		return nil, err
	}

	type metricDef struct {
		name    string
		factory fuzzer.MetricFactory
	}
	metrics := []metricDef{
		{"edge", func(size int) (core.Metric, error) { return core.NewEdgeMetric(size) }},
		{"ngram2", func(size int) (core.Metric, error) { return core.NewNGramMetric(size, 2) }},
		{"ngram3", func(size int) (core.Metric, error) { return core.NewNGramMetric(size, 3) }},
		{"ngram4", func(size int) (core.Metric, error) { return core.NewNGramMetric(size, 4) }},
		{"ctx-edge", func(size int) (core.Metric, error) { return core.NewContextMetric(size) }},
	}

	t := &Table{
		Title: "Metric map pressure (§VI): distinct coverage keys per metric",
		Notes: []string{
			"all runs BigMap @ 8MB (collisions negligible), equal exec budgets",
			"coll%64k: Equation 1 rate those keys would suffer on AFL's default map",
		},
		Header: []string{"benchmark", "metric", "keys", "pressure", "coll%64k"},
	}

	for _, p := range profiles {
		b, err := prepare(p, opts)
		if err != nil {
			return nil, err
		}
		baseline := 0
		for _, m := range metrics {
			f, _, err := b.run(b.prog, fuzzer.Config{Scheme: fuzzer.SchemeBigMap, MapSize: 8 << 20, Metric: m.factory})
			if err != nil {
				return nil, err
			}
			keys := f.Stats().EdgesDiscovered
			if m.name == "edge" {
				baseline = keys
			}
			pressure := "1.00x"
			if baseline > 0 {
				pressure = fmt.Sprintf("%.2fx", float64(keys)/float64(baseline))
			}
			rate, err := collision.Rate(64<<10, max(keys, 1))
			if err != nil {
				return nil, err
			}
			t.AddRow(p.Name, m.name, fmtInt(keys), pressure, fmtFloat(rate*100, 2))
			opts.progressf("  metrics %-10s %-8s keys=%d\n", p.Name, m.name, keys)
		}
	}
	return t, nil
}
