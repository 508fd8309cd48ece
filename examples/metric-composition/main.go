// metric-composition: the paper's §V-C scenario on one benchmark — stack
// the laf-intel transformation with N-gram (N=3) coverage, then compare a
// 64kB map against a 2MB map, both under BigMap.
//
// laf-intel splits every multi-byte magic comparison into a cascade of
// single-byte comparisons, multiplying static edges; N-gram keys coverage by
// the last three blocks rather than one edge, multiplying map pressure
// again. On a 64kB map the composed metric collides heavily (Equation 1)
// and the corrupted feedback hides crash guards; a 2MB map restores clean
// feedback. Both runs use BigMap, so the 2MB map costs essentially nothing
// — the point of the paper's Table III.
//
// Run with:
//
//	go run ./examples/metric-composition
package main

import (
	"fmt"
	"os"

	"github.com/bigmap/bigmap"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "metric-composition:", err)
		os.Exit(1)
	}
}

func run() error {
	// Use the Table III composition profile for gvn (heavier magic-compare
	// share and crash density than the Table II throughput benchmark of
	// the same name).
	var profile bigmap.Profile
	found := false
	for _, p := range bigmap.CompositionProfiles() {
		if p.Name == "gvn" {
			profile, found = p, true
			break
		}
	}
	if !found {
		return fmt.Errorf("gvn composition profile missing")
	}
	prog, err := bigmap.Generate(profile.Spec(0.02))
	if err != nil {
		return err
	}

	laf, stats := bigmap.LafIntel(prog, 9)
	fmt.Printf("laf-intel on %s: %d compares + %d switches split\n",
		prog.Name, stats.SplitCompares, stats.SplitSwitches)
	fmt.Printf("  static edges %d -> %d (%.1fx amplification)\n",
		stats.StaticEdgesBefore, stats.StaticEdgesAfter,
		float64(stats.StaticEdgesAfter)/float64(stats.StaticEdgesBefore))

	seeds := bigmap.SynthesizeSeeds(laf, 5, 16)

	for _, size := range []int{bigmap.MapSize64K, bigmap.MapSize2M} {
		f, err := bigmap.NewFuzzer(laf,
			bigmap.WithScheme(bigmap.SchemeBigMap),
			bigmap.WithMapSize(size),
			bigmap.WithNGram(3),
			bigmap.WithSeed(2),
		)
		if err != nil {
			return err
		}
		if _, err := f.AddSeeds(seeds); err != nil {
			return err
		}
		if err := f.RunExecs(250000); err != nil {
			return err
		}
		st := f.Stats()
		rate, err := bigmap.CollisionRate(size, max(st.EdgesDiscovered, 1))
		if err != nil {
			return err
		}
		fmt.Printf("\nBigMap + laf-intel + 3-gram at a %7d-slot map:\n", size)
		fmt.Printf("  coverage keys discovered: %d\n", st.EdgesDiscovered)
		fmt.Printf("  collision rate (Eq. 1)  : %.2f%%\n", rate*100)
		fmt.Printf("  unique crashes          : %d\n", st.UniqueCrashes)
	}
	fmt.Println("\npaper Table III shape: same edges, far fewer collisions, more crashes at 2MB")
	return nil
}
