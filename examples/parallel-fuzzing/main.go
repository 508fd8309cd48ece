// parallel-fuzzing: run a master–secondary campaign (the paper's §V-D
// configuration) with four concurrent instances and a 2MB BigMap, with
// periodic corpus cross-pollination.
//
// Run with:
//
//	go run ./examples/parallel-fuzzing
package main

import (
	"fmt"
	"os"
	"time"

	"github.com/bigmap/bigmap"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "parallel-fuzzing:", err)
		os.Exit(1)
	}
}

func run() error {
	prog, err := bigmap.Generate(bigmap.GenSpec{
		Name:              "parallel-demo",
		Seed:              77,
		NumFuncs:          30,
		BlocksPerFunc:     24,
		InputLen:          128,
		BranchFraction:    0.65,
		MagicCompares:     8,
		MagicWidth:        2,
		BonusBlocks:       6,
		GatedCallFraction: 0.3,
		Switches:          4,
		SwitchFanout:      8,
		Loops:             4,
		LoopMax:           32,
		CrashSites:        6,
		CrashDepth:        2,
	})
	if err != nil {
		return err
	}
	seeds := bigmap.SynthesizeSeeds(prog, 4, 8)

	camp, err := bigmap.NewCampaign(prog, bigmap.CampaignConfig{
		Instances:           4,
		SyncEvery:           20000,
		MasterDeterministic: true, // instance 0 runs the deterministic stages
		Fuzzer: bigmap.FuzzerConfig{
			Scheme:  bigmap.SchemeBigMap,
			MapSize: bigmap.MapSize2M,
			Seed:    5,
		},
	}, seeds)
	if err != nil {
		return err
	}

	counted, err := camp.RunFor(3 * time.Second)
	if err != nil {
		return err
	}

	rep := camp.Report()
	fmt.Printf("campaign: 4 instances, 2MB BigMap, %.1fs wall clock\n", counted.Seconds())
	fmt.Printf("  total execs   : %d (%.0f/sec aggregate)\n",
		rep.TotalExecs, float64(rep.TotalExecs)/counted.Seconds())
	fmt.Printf("  best coverage : %d edges\n", rep.MaxEdges)
	fmt.Printf("  unique crashes: %d (union across instances)\n", rep.UniqueCrashes)
	for i, st := range rep.PerInstance {
		role := "secondary"
		if i == 0 {
			role = "master"
		}
		fmt.Printf("  instance %d (%s): execs=%-8d paths=%-4d edges=%-4d crashes=%d\n",
			i, role, st.Execs, st.Paths, st.EdgesDiscovered, st.UniqueCrashes)
	}
	return nil
}
