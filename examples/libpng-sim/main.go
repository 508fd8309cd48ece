// libpng-sim: fuzz the libpng-shaped Table II benchmark and compare the two
// map schemes at a 2MB map — a miniature of the paper's Figure 6 for one
// benchmark.
//
// The libpng profile mirrors the paper's benchmark characteristics (1 seed,
// ~3k static edges at full scale, moderate gating); at 2MB the flat AFL
// bitmap pays three full-map traversals per test case while BigMap touches
// only the used region, so the throughput gap is dramatic even though both
// campaigns make the same coverage decisions.
//
// The rates are the fuzzer's own work per test case (the interpreter plus the
// map operations). No native execution time is charged, as bigmap-bench fig6
// does (FuzzerConfig.ExecCostNs), so the speedup is larger than a real
// target's would be.
//
// Run with:
//
//	go run ./examples/libpng-sim
package main

import (
	"fmt"
	"os"
	"time"

	"github.com/bigmap/bigmap"
)

const (
	mapSize = bigmap.MapSize2M
	budget  = 30000
	scale   = 0.25
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "libpng-sim:", err)
		os.Exit(1)
	}
}

func run() error {
	profile, ok := bigmap.ProfileByName("libpng")
	if !ok {
		return fmt.Errorf("libpng profile missing")
	}
	prog, err := bigmap.Generate(profile.Spec(scale))
	if err != nil {
		return err
	}
	fmt.Printf("libpng-shaped target: %d blocks, %d static edges (paper: %d at full scale)\n",
		prog.NumBlocks(), prog.StaticEdges(), profile.PaperStaticEdges)

	seeds := bigmap.SynthesizeSeeds(prog, 3, 8)

	type outcome struct {
		scheme  bigmap.Scheme
		execsPS float64
		stats   bigmap.Stats
	}
	var results []outcome
	for _, scheme := range []bigmap.Scheme{bigmap.SchemeAFL, bigmap.SchemeBigMap} {
		f, err := bigmap.NewFuzzer(prog,
			bigmap.WithScheme(scheme),
			bigmap.WithMapSize(mapSize),
			bigmap.WithSeed(1),
		)
		if err != nil {
			return err
		}
		if _, err := f.AddSeeds(seeds); err != nil {
			return fmt.Errorf("%s: %w", scheme, err)
		}

		start := time.Now()
		if err := f.RunExecs(budget); err != nil {
			return err
		}
		elapsed := time.Since(start).Seconds()
		st := f.Stats()
		results = append(results, outcome{
			scheme:  scheme,
			execsPS: float64(st.Execs) / elapsed,
			stats:   st,
		})
		fmt.Printf("  %-7s %8.0f execs/s  paths=%-3d edges=%-4d used_key=%d\n",
			scheme, float64(st.Execs)/elapsed, st.Paths, st.EdgesDiscovered, st.UsedKeys)
	}

	if len(results) == 2 && results[0].execsPS > 0 {
		fmt.Printf("\nBigMap speedup at a %s map: %.1fx (fuzzer work only, no target execution time charged)\n",
			"2MB", results[1].execsPS/results[0].execsPS)
		fmt.Printf("coverage parity: afl=%d vs bigmap=%d edges (same feedback, different cost)\n",
			results[0].stats.EdgesDiscovered, results[1].stats.EdgesDiscovered)
	}
	return nil
}
