// Command bigmap-bench regenerates the paper's evaluation artifacts: every
// table and figure of §V has a subcommand that reruns the experiment on the
// synthetic substrate and prints a paper-shaped table.
//
// Usage:
//
//	bigmap-bench fig2                        # collision-rate curves (Eq. 1)
//	bigmap-bench fig3  [flags]               # runtime composition
//	bigmap-bench table2 [flags]              # benchmark characteristics
//	bigmap-bench fig6|fig7|fig8 [flags]      # throughput / coverage / crashes grid
//	bigmap-bench fig7t [flags]               # fig7+fig8 under a TIME budget
//	bigmap-bench table3 [flags]              # laf-intel + N-gram composition
//	bigmap-bench fig9|fig10 [flags]          # parallel scaling
//	bigmap-bench ablation [flags]            # §IV-E design-choice ablations
//	bigmap-bench dedup [flags]               # §V-A3 dedup-bias demonstration
//	bigmap-bench roadblocks [flags]          # extension: dict vs laf vs cmplog
//	bigmap-bench collafl [flags]             # §VI related-work comparison
//	bigmap-bench metrics [flags]             # §VI metric map-pressure sweep
//	bigmap-bench ensemble [flags]            # §VI future work: ensemble vs stacking
//	bigmap-bench schedules [flags]           # AFLFast power schedules on BigMap
//	bigmap-bench all [flags]                 # everything above
//	bigmap-bench grid [-config f] [-out dir] # declarative reproducible grid -> results/
//
// Common flags:
//
//	-scale f     benchmark scale vs the paper's static edges (default 0.05)
//	-execs n     test-case budget per configuration (default 20000)
//	-seconds f   wall-clock budget per cell for time-budget experiments (default 2)
//	-benchmarks  comma-separated subset (default: experiment's own set)
//	-seed n      campaign seed (default 1)
//	-trials n    average grid cells over n runs (the paper averages 3)
//	-csv         emit CSV instead of an aligned table
//	-q           suppress per-cell progress lines
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"github.com/bigmap/bigmap/internal/bench"
	"github.com/bigmap/bigmap/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bigmap-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("missing subcommand (fig2, fig3, table2, fig6, fig7, fig7t, fig8, table3, fig9, fig10, ablation, dedup, roadblocks, collafl, metrics, ensemble, schedules, all)")
	}
	sub, rest := args[0], args[1:]

	if sub == "grid" {
		return runGrid(rest)
	}

	fs := flag.NewFlagSet(sub, flag.ContinueOnError)
	scale := fs.Float64("scale", 0.05, "benchmark scale")
	execs := fs.Uint64("execs", 20000, "execs per configuration")
	seconds := fs.Float64("seconds", 2, "seconds per cell for time-budget experiments")
	benchmarks := fs.String("benchmarks", "", "comma-separated benchmark subset")
	seed := fs.Uint64("seed", 1, "campaign seed")
	trials := fs.Int("trials", 1, "average grid cells over this many runs (paper uses 3)")
	csv := fs.Bool("csv", false, "emit CSV")
	quiet := fs.Bool("q", false, "suppress progress")
	httpAddr := fs.String("http", "", "serve /debug/pprof/ on this address during the run")
	if err := fs.Parse(rest); err != nil {
		return err
	}

	if *httpAddr != "" {
		// The endpoint exists to profile the experiments (pprof). No shared
		// registry is served: most experiments measure the uninstrumented
		// loop, and Figure 3 reads a private registry per cell.
		go func() {
			if err := http.ListenAndServe(*httpAddr, telemetry.Handler(nil)); err != nil {
				fmt.Fprintln(os.Stderr, "bigmap-bench: http:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "profiling endpoint on http://%s/debug/pprof/\n", *httpAddr)
	}

	opts := bench.Options{
		Scale:       *scale,
		ExecsPerRun: *execs,
		Seed:        *seed,
		Trials:      *trials,
	}
	if *benchmarks != "" {
		opts.Benchmarks = strings.Split(*benchmarks, ",")
	}
	if !*quiet {
		opts.Progress = os.Stderr
	}

	emit := func(tables ...*bench.Table) error {
		for _, t := range tables {
			if t == nil {
				continue
			}
			var err error
			if *csv {
				err = t.RenderCSV(os.Stdout)
			} else {
				err = t.Render(os.Stdout)
			}
			if err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	}

	return dispatch(sub, opts, *seconds, emit)
}

// dispatch runs one experiment subcommand through emit. Every per-figure
// subcommand resolves through the experiment registry, so the CLI, the `all`
// sweep and the grid runner cannot drift apart.
func dispatch(sub string, opts bench.Options, seconds float64, emit func(...*bench.Table) error) error {
	if sub == "all" {
		return runAll(opts, seconds, emit)
	}
	tables, err := bench.RunExperiment(sub, opts, seconds)
	if err != nil {
		return err
	}
	return emit(tables...)
}

// runGrid implements the grid subcommand: execute a declarative
// experiments.json and regenerate every artifact under the output directory.
func runGrid(args []string) error {
	fs := flag.NewFlagSet("grid", flag.ContinueOnError)
	config := fs.String("config", "experiments.json", "declarative experiment grid (schema bigmap-grid/v1)")
	out := fs.String("out", "results", "output directory for txt/csv/grid.json artifacts")
	quiet := fs.Bool("q", false, "suppress progress")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := bench.LoadGridConfig(*config)
	if err != nil {
		return err
	}
	var progress io.Writer
	if !*quiet {
		progress = os.Stderr
	}
	res, err := bench.RunGridConfig(cfg, *out, progress)
	if err != nil {
		return err
	}
	for _, f := range res.Files {
		fmt.Println(filepath.Join(*out, f))
	}
	return nil
}

// runAll regenerates every artifact in paper order.
func runAll(opts bench.Options, seconds float64, emit func(...*bench.Table) error) error {
	fig2, err := bench.Fig2()
	if err != nil {
		return err
	}
	if err := emit(fig2); err != nil {
		return err
	}

	fig3, err := bench.Fig3(opts)
	if err != nil {
		return err
	}
	if err := emit(fig3); err != nil {
		return err
	}

	table2, err := bench.Table2(opts)
	if err != nil {
		return err
	}
	if err := emit(table2); err != nil {
		return err
	}

	grid, err := bench.RunFig678Grid(opts)
	if err != nil {
		return err
	}
	if err := emit(grid.Fig6(), grid.Fig7(), grid.Fig8()); err != nil {
		return err
	}

	table3, err := bench.Table3(opts)
	if err != nil {
		return err
	}
	if err := emit(table3); err != nil {
		return err
	}

	scaling, err := bench.RunScaling(opts, seconds)
	if err != nil {
		return err
	}
	if err := emit(scaling.Fig9a(), scaling.Fig9b(), scaling.Fig10()); err != nil {
		return err
	}

	ablation, err := bench.Ablation(opts)
	if err != nil {
		return err
	}
	if err := emit(ablation); err != nil {
		return err
	}

	dedup, err := bench.DedupBias(opts)
	if err != nil {
		return err
	}
	if err := emit(dedup); err != nil {
		return err
	}

	for _, extra := range []func(bench.Options) (*bench.Table, error){
		bench.CollAFL, bench.Metrics, bench.Roadblocks, bench.Schedules, bench.EnsembleVsStacking,
	} {
		t, err := extra(opts)
		if err != nil {
			return err
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	return nil
}
