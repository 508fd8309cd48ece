// Command bigmap-gen generates and inspects synthetic targets: CFG
// statistics, laf-intel amplification, collision projections, extractable
// dictionary tokens, and crash-site reachability — the "what am I fuzzing"
// view a real campaign gets from binary analysis.
//
// Usage:
//
//	bigmap-gen -bench sqlite3 -scale 0.1
//	bigmap-gen -bench instcombine -scale 0.05 -laf -dict -witnesses 5
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/bigmap/bigmap"
	"github.com/bigmap/bigmap/internal/dictionary"
	"github.com/bigmap/bigmap/internal/rng"
	"github.com/bigmap/bigmap/internal/target"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bigmap-gen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bigmap-gen", flag.ContinueOnError)
	benchName := fs.String("bench", "", "benchmark profile to generate")
	scale := fs.Float64("scale", 0.1, "scale relative to the paper's static edges")
	seed := fs.Uint64("seed", 1, "generation seed (for -laf and -witnesses)")
	laf := fs.Bool("laf", false, "also report the laf-intel transformation")
	dict := fs.Bool("dict", false, "print the extractable dictionary (AFL -x format)")
	witnesses := fs.Int("witnesses", 0, "synthesize up to this many crash witnesses")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *benchName == "" {
		return fmt.Errorf("need -bench (a Table II or Table III profile name)")
	}

	profile, ok := bigmap.ProfileByName(*benchName)
	if !ok {
		return fmt.Errorf("unknown benchmark %q", *benchName)
	}
	prog, err := bigmap.Generate(profile.Spec(*scale))
	if err != nil {
		return err
	}

	fmt.Printf("benchmark : %s %s (scale %g)\n", profile.Name, profile.Version, *scale)
	fmt.Printf("functions : %d\n", len(prog.Funcs))
	fmt.Printf("blocks    : %d\n", prog.NumBlocks())
	fmt.Printf("static edges: %d (paper full-scale: %d)\n", prog.StaticEdges(), profile.PaperStaticEdges)
	fmt.Printf("crash sites : %d\n", len(prog.CrashSites()))
	fmt.Printf("input length: %d bytes\n", prog.InputLen)

	kindCounts(prog)

	for _, h := range []int{64 << 10, 2 << 20, 8 << 20} {
		rate, err := bigmap.CollisionRate(h, max(prog.StaticEdges(), 1))
		if err == nil {
			fmt.Printf("collision projection @%7d slots (all static edges hit): %.2f%%\n", h, rate*100)
		}
	}

	if *laf {
		lafProg, stats := bigmap.LafIntel(prog, *seed)
		fmt.Printf("\nlaf-intel: %d compares + %d switches split, %d blocks added\n",
			stats.SplitCompares, stats.SplitSwitches, stats.AddedBlocks)
		fmt.Printf("  static edges %d -> %d (%.2fx)\n",
			stats.StaticEdgesBefore, stats.StaticEdgesAfter,
			float64(stats.StaticEdgesAfter)/float64(max(stats.StaticEdgesBefore, 1)))
		_ = lafProg
	}

	if *dict {
		tokens := dictionary.Extract(prog)
		fmt.Printf("\n# %d extractable tokens (AFL -x format)\n", len(tokens))
		fmt.Print(dictionary.Format(tokens))
	}

	if *witnesses > 0 {
		src := rng.New(*seed ^ 0x717335)
		ip := target.NewInterp(prog)
		found := 0
		fmt.Println()
		for attempt := 0; attempt < *witnesses*50 && found < *witnesses; attempt++ {
			w, ok := prog.SynthesizeCrashWitness(src)
			if !ok {
				continue
			}
			res := ip.Run(w, target.NopTracer{}, 1<<22)
			if res.Status != target.StatusCrash {
				continue
			}
			found++
			fmt.Printf("crash witness %d: site=%d stack-depth=%d input=%dB\n",
				found, res.CrashSite, len(res.Stack), len(w))
		}
		if found == 0 {
			fmt.Println("no crash witnesses found (target may have no reachable crash sites)")
		}
	}
	return nil
}

// kindCounts prints the block-kind census.
func kindCounts(prog *bigmap.Program) {
	counts := map[target.NodeKind]int{}
	for fi := range prog.Funcs {
		for bi := range prog.Funcs[fi].Blocks {
			counts[prog.Funcs[fi].Blocks[bi].Node.Kind]++
		}
	}
	names := []struct {
		k target.NodeKind
		n string
	}{
		{target.KindJump, "jumps"},
		{target.KindCompareByte, "byte compares"},
		{target.KindCompareWord, "word compares"},
		{target.KindSwitch, "switches"},
		{target.KindSelfLoop, "loops"},
		{target.KindCall, "calls"},
		{target.KindCrash, "crash blocks"},
		{target.KindHang, "hang blocks"},
		{target.KindReturn, "returns"},
	}
	fmt.Println("block census:")
	for _, e := range names {
		if counts[e.k] > 0 {
			fmt.Printf("  %-14s %d\n", e.n, counts[e.k])
		}
	}
}
