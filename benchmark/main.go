// Command bigmap-benchmark is the repository benchmark: it runs one named
// fuzzing workload through the program's public Go functions, times the
// calls from outside, checks that the outputs are correct, and prints every
// metric by name with its unit. See README.md for the workloads, the metrics
// and how to compare two commits.
//
// Usage:
//
//	bigmap-benchmark --workload NAME --seed N --seconds S --trace 0|1
//	bigmap-benchmark all --seed N [--seconds S] [--trace 0|1]
//	bigmap-benchmark compare BENCHMARK.json PARENT_DIR CANDIDATE_DIR
//
// A run prints one JSON object as the last line of its standard output:
// correct, attempted, failed and metrics (the end-to-end metrics untraced,
// the per-layer metrics with --trace 1). The full result, with the samples
// and the run metadata, is written to the results directory ($BENCH_RESULTS,
// default results/ beside the executable); a traced run also writes its
// spans there.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareCmd(args[1:], stdout, stderr)
		case "all":
			return allCmd(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("bigmap-benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name (see README.md)")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "measurement time")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "bigmap-benchmark: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bigmap-benchmark: --trace must be 0 or 1")
		return 2
	}
	res, rec, err := measure(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "bigmap-benchmark: %s: %v\n", w.name, err)
		return 1
	}
	dir, err := resultsDir()
	if err == nil {
		err = save(dir, res, rec)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bigmap-benchmark: %v\n", err)
		return 1
	}
	for _, p := range res.Problems {
		fmt.Fprintln(stderr, "check failed:", p)
	}
	printTable(stderr, res)
	line, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintln(stderr, "bigmap-benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func resultsDir() (string, error) {
	if d := os.Getenv("BENCH_RESULTS"); d != "" {
		return d, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	return filepath.Join(filepath.Dir(exe), "results"), nil
}

// save writes the full result and, for a traced run, its spans.
func save(dir string, res *result, rec *recorder) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, res.ID)
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	if rec != nil {
		return rec.write(base + ".spans.jsonl")
	}
	return nil
}

// printTable prints the run's metrics for a human reader.
func printTable(w io.Writer, res *result) {
	fmt.Fprintf(w, "%s seed %d trace %v: %d attempted, %d failed, correct %v\n",
		res.Workload, res.Seed, res.Trace, res.Attempted, res.Failed, res.Correct)
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if m, ok := res.Metrics[s.name]; ok {
			fmt.Fprintf(w, "  %-30s %14.6g %s\n", s.name, m.Value, m.Unit)
		}
	}
}

// allCmd runs every workload, each in a fresh process of this binary.
func allCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("all", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 20, "measurement time per workload")
	trace := fs.Int("trace", 0, "1 = traced runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bigmap-benchmark:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(*seed),
			"--seconds", fmt.Sprint(*seconds), "--trace", fmt.Sprint(*trace))
		var buf strings.Builder
		cmd.Stdout = &buf
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			code = 1
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		fmt.Fprintf(stdout, "%s %s\n", w.name, lines[len(lines)-1])
	}
	return code
}
