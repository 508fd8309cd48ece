// triage-workflow: the full post-campaign pipeline — fuzz with session
// persistence, replay the saved corpus under an exact (bias-free) coverage
// build, bucket the crashes Crashwalk-style, and minimize one witness per
// bucket, all through the public API.
//
// Run with:
//
//	go run ./examples/triage-workflow
package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"github.com/bigmap/bigmap"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "triage-workflow:", err)
		os.Exit(1)
	}
}

func run() error {
	// A crash-rich target: shallow guard chains so a short demo finds
	// several distinct buckets.
	prog, err := bigmap.Generate(bigmap.GenSpec{
		Name:           "triage-demo",
		Seed:           1234,
		NumFuncs:       10,
		BlocksPerFunc:  18,
		InputLen:       64,
		BranchFraction: 0.6,
		CrashSites:     8,
		CrashDepth:     2,
	})
	if err != nil {
		return err
	}

	// Phase 1: fuzz with an output session.
	dir, err := os.MkdirTemp("", "bigmap-triage-*")
	if err != nil {
		return err
	}
	fmt.Printf("session directory: %s\n", dir)

	session, err := bigmap.NewSession(dir)
	if err != nil {
		return err
	}
	defer session.Close()

	f, err := bigmap.NewFuzzer(prog,
		bigmap.WithScheme(bigmap.SchemeBigMap),
		bigmap.WithMapSize(bigmap.MapSize2M),
		bigmap.WithSeed(1),
	)
	if err != nil {
		return err
	}
	if _, err := f.AddSeeds(bigmap.SynthesizeSeeds(prog, 2, 8)); err != nil {
		return err
	}
	for burst := 0; burst < 5; burst++ {
		if err := f.RunExecs(30000); err != nil {
			return err
		}
		if err := session.AppendPlot(f.Stats()); err != nil {
			return err
		}
	}
	st := f.Stats()
	if err := session.SaveQueue(f.Queue().Entries()); err != nil {
		return err
	}
	if err := session.SaveCrashes(f.Crashes().Records()); err != nil {
		return err
	}
	if err := session.WriteStats(st, "bigmap", bigmap.MapSize2M); err != nil {
		return err
	}
	fmt.Printf("fuzzing: %d execs, %d paths, %d unique crash buckets\n",
		st.Execs, st.Paths, st.UniqueCrashes)

	// Phase 2: bias-free coverage of the saved corpus (§V-A3 methodology).
	corpus, err := bigmap.LoadCorpus(filepath.Join(dir, "queue"))
	if err != nil {
		return err
	}
	cov := bigmap.NewCoverageReport(prog, 0)
	cov.AddCorpus(corpus)
	fmt.Printf("exact replay of %d corpus files: %d distinct edges, %d blocks\n",
		len(corpus), cov.Edges(), cov.Blocks())

	// Phase 3: minimize one witness per crash bucket.
	minimizer := bigmap.NewMinimizer(prog, 0, 0)
	for _, rec := range f.Crashes().Records() {
		witness, stats, err := minimizer.Minimize(rec.Input)
		if err != nil {
			if errors.Is(err, bigmap.ErrNotACrash) {
				continue
			}
			return err
		}
		fmt.Printf("bucket %016x (site %d, depth %d): %d -> %d bytes, %d normalized\n",
			rec.Key, rec.Site, rec.StackDepth, stats.InLen, stats.OutLen, stats.NormalizedBytes)
		_ = witness
	}
	return nil
}
