// Quickstart: fuzz a small synthetic target with BigMap and watch coverage
// grow.
//
// This is the minimal end-to-end use of the library:
//
//  1. generate an instrumented target (or pick a Table II profile),
//  2. create a fuzzer with the BigMap two-level coverage map,
//  3. seed it, run it, read the stats.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"github.com/bigmap/bigmap"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// A small branchy program with a couple of guarded crash sites.
	prog, err := bigmap.Generate(bigmap.GenSpec{
		Name:           "quickstart",
		Seed:           42,
		NumFuncs:       8,
		BlocksPerFunc:  20,
		InputLen:       64,
		BranchFraction: 0.6,
		Switches:       3,
		SwitchFanout:   6,
		Loops:          3,
		LoopMax:        16,
		CrashSites:     3,
		CrashDepth:     2,
	})
	if err != nil {
		return err
	}
	fmt.Printf("target: %d blocks, %d static edges, %d crash sites\n",
		prog.NumBlocks(), prog.StaticEdges(), len(prog.CrashSites()))

	// A BigMap-backed fuzzer: the 2MB map would cripple a flat bitmap, but
	// the two-level scheme only ever touches the used region.
	f, err := bigmap.NewFuzzer(prog,
		bigmap.WithScheme(bigmap.SchemeBigMap),
		bigmap.WithMapSize(bigmap.MapSize2M),
		bigmap.WithSeed(1),
	)
	if err != nil {
		return err
	}

	// Seed corpus: the target type can synthesize plausible seeds, the
	// stand-in for the seed files of a real campaign.
	if _, err := f.AddSeeds(bigmap.SynthesizeSeeds(prog, 7, 8)); err != nil {
		return err
	}

	// Fuzz in bursts and report progress.
	for burst := 1; burst <= 5; burst++ {
		if err := f.RunExecs(20000); err != nil {
			return err
		}
		st := f.Stats()
		fmt.Printf("after %7d execs: %3d paths, %4d edges, %d unique crashes\n",
			st.Execs, st.Paths, st.EdgesDiscovered, st.UniqueCrashes)
	}

	st := f.Stats()
	fmt.Printf("\nfinal: used_key=%d of %d map slots (%.4f%% of the map in use)\n",
		st.UsedKeys, bigmap.MapSize2M,
		100*float64(st.UsedKeys)/float64(bigmap.MapSize2M))
	for _, rec := range f.Crashes().Records() {
		fmt.Printf("crash bucket %016x: site=%d stack-depth=%d hits=%d\n",
			rec.Key, rec.Site, rec.StackDepth, rec.Count)
	}
	return nil
}
