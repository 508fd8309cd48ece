// Command bigmap-triage replays the crashes of a saved fuzzing session
// (bigmap-fuzz -o <dir>), deduplicates them Crashwalk-style, and minimizes
// one witness per bucket — the afl-tmin + crashwalk step of a real triage
// workflow.
//
// Usage:
//
//	bigmap-fuzz -bench gvn -map 2M -execs 300000 -scale 0.05 -o out
//	bigmap-triage -bench gvn -scale 0.05 -crashes out/crashes
//
// The -bench and -scale flags must match the fuzzing run so the same target
// program is regenerated.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"github.com/bigmap/bigmap"
	"github.com/bigmap/bigmap/internal/crash"
	"github.com/bigmap/bigmap/internal/output"
	"github.com/bigmap/bigmap/internal/target"
	"github.com/bigmap/bigmap/internal/tmin"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bigmap-triage:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bigmap-triage", flag.ContinueOnError)
	benchName := fs.String("bench", "", "benchmark profile the session fuzzed")
	scale := fs.Float64("scale", 0.1, "benchmark scale used by the session")
	laf := fs.Bool("laf", false, "session used the laf-intel transformation")
	seed := fs.Uint64("seed", 1, "campaign seed used by the session")
	crashDir := fs.String("crashes", "", "crashes directory of the saved session")
	minimize := fs.Bool("min", true, "minimize one witness per bucket")
	outDir := fs.String("o", "", "write minimized witnesses here (optional)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *benchName == "" || *crashDir == "" {
		return fmt.Errorf("need -bench and -crashes")
	}

	profile, ok := bigmap.ProfileByName(*benchName)
	if !ok {
		return fmt.Errorf("unknown benchmark %q", *benchName)
	}
	prog, err := bigmap.Generate(profile.Spec(*scale))
	if err != nil {
		return err
	}
	if *laf {
		prog, _ = bigmap.LafIntel(prog, *seed)
	}

	inputs, err := output.LoadCorpus(*crashDir)
	if err != nil {
		return err
	}
	if len(inputs) == 0 {
		fmt.Println("no crashes to triage")
		return nil
	}

	// Replay and bucket.
	interp := bigmap.NewInterp(prog)
	dedup := crash.NewDeduper()
	nonCrashing := 0
	for _, in := range inputs {
		res := interp.Run(in, target.NopTracer{}, 1<<22)
		if res.Status != bigmap.StatusCrash {
			nonCrashing++
			continue
		}
		dedup.Observe(res.CrashSite, res.Stack, in)
	}
	fmt.Printf("replayed %d inputs: %d crash buckets, %d did not reproduce\n",
		len(inputs), dedup.Unique(), nonCrashing)

	minimizer := tmin.New(prog, 0, 0)
	for i, rec := range dedup.Records() {
		fmt.Printf("\nbucket %016x  site=%d  stack-depth=%d  hits=%d\n",
			rec.Key, rec.Site, rec.StackDepth, rec.Count)
		if !*minimize {
			continue
		}
		witness, stats, err := minimizer.Minimize(rec.Input)
		if err != nil {
			fmt.Printf("  minimize: %v\n", err)
			continue
		}
		fmt.Printf("  minimized: %d -> %d bytes (%d normalized, %d execs)\n",
			stats.InLen, stats.OutLen, stats.NormalizedBytes, stats.Execs)
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return err
			}
			name := fmt.Sprintf("min:%06d,sig:%016x", i, rec.Key)
			if err := os.WriteFile(filepath.Join(*outDir, name), witness, 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}
