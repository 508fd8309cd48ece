package bench

import (
	"fmt"

	"github.com/bigmap/bigmap/internal/collision"
	"github.com/bigmap/bigmap/internal/core"
	"github.com/bigmap/bigmap/internal/fuzzer"
	"github.com/bigmap/bigmap/internal/lafintel"
	"github.com/bigmap/bigmap/internal/target"
)

// Table3 regenerates the paper's Table III: the aggressive composition of
// laf-intel and 3-gram coverage on the LLVM harnesses, fuzzed with BigMap at
// a 64kB and a 2MB map. Both configurations use BigMap (as in the paper);
// the comparison isolates the effect of collision mitigation on crash
// finding when the metric composition floods a small map.
func Table3(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	profiles, err := selectProfiles(target.CompositionProfiles(), opts.Benchmarks)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "Table III: code coverage with laf-intel and 3-gram (both runs BigMap)",
		Notes: []string{
			"paper shape: collision rate collapses small->2M; unique crashes improve ~33%",
			"the small map is chosen per benchmark so keys/slots matches the paper's",
			"~9:1 pressure (603k keys in a 64kB map); at reduced scale a literal 64kB",
			"map would be nearly collision-free and show no effect",
		},
		Header: []string{
			"benchmark", "small-map",
			"coll%small", "coll%2M",
			"edges-small", "edges2M",
			"crash-small", "crash2M",
			"crash64k(paper)", "crash2M(paper)",
		},
	}

	var sum64, sum2M float64
	var smallLabel string
	for _, p := range profiles {
		b, err := prepare(p, opts)
		if err != nil {
			return nil, err
		}
		laf, stats := lafintel.Transform(b.prog, opts.Seed)
		opts.progressf("  table3 %-16s laf: %d -> %d static edges\n",
			p.Name, stats.StaticEdgesBefore, stats.StaticEdgesAfter)

		// run returns the fuzzer stats plus the bias-free edge coverage of
		// the output corpus (§V-A3: "subjected them to a bias-free
		// independent coverage build") — the fuzzer's own virgin count is
		// bounded by its map and useless for cross-size comparison.
		run := func(size int) (fuzzer.Stats, int, error) {
			f, _, err := b.run(laf, fuzzer.Config{
				Scheme:  fuzzer.SchemeBigMap,
				MapSize: size,
				Metric: func(mapSize int) (core.Metric, error) {
					return core.NewNGramMetric(mapSize, 3)
				},
			})
			if err != nil {
				return fuzzer.Stats{}, 0, err
			}
			return f.Stats(), exactEdges(laf, f), nil
		}

		// Big map first: its (nearly collision-free) key count calibrates
		// the small map to the paper's ~9:1 keys-to-slots pressure.
		big, bigCov, err := run(2 << 20)
		if err != nil {
			return nil, err
		}
		smallSize := 1 << 10
		for smallSize*9 < big.EdgesDiscovered {
			smallSize <<= 1
		}
		small, smallCov, err := run(smallSize)
		if err != nil {
			return nil, err
		}
		cells := [2]fuzzer.Stats{small, big}
		covEdges := [2]int{smallCov, bigCov}
		sizes := []int{smallSize, 2 << 20}
		smallLabel = fmtSize(smallSize)

		coll := func(keys, size int) float64 {
			r, rerr := collision.Rate(size, max(keys, 1))
			if rerr != nil {
				return 0
			}
			return r * 100
		}
		paper, ok := target.TableIIICrashes[p.Name]
		if !ok {
			return nil, fmt.Errorf("bench: no Table III paper record for %q", p.Name)
		}
		t.AddRow(p.Name, smallLabel,
			fmtFloat(coll(big.EdgesDiscovered, sizes[0]), 1), fmtFloat(coll(big.EdgesDiscovered, sizes[1]), 1),
			fmtInt(covEdges[0]), fmtInt(covEdges[1]),
			fmtInt(cells[0].UniqueCrashes), fmtInt(cells[1].UniqueCrashes),
			fmtInt(paper[0]), fmtInt(paper[1]),
		)
		sum64 += float64(cells[0].UniqueCrashes)
		sum2M += float64(cells[1].UniqueCrashes)
	}
	if n := float64(len(profiles)); n > 0 {
		gain := 0.0
		if sum64 > 0 {
			gain = (sum2M/sum64 - 1) * 100
		}
		t.AddRow("AVERAGE", "", "", "",
			"", "",
			fmtFloat(sum64/n, 1), fmtFloat(sum2M/n, 1),
			"264", "352")
		t.Notes = append(t.Notes, fmt.Sprintf("measured crash gain 64k->2M: %+.0f%% (paper: +33%%)", gain))
	}
	return t, nil
}
