package main

import (
	"testing"

	"github.com/bigmap/bigmap/internal/bench"
)

func TestRunFig2(t *testing.T) {
	if err := run([]string{"fig2"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFig2CSV(t *testing.T) {
	if err := run([]string{"fig2", "-csv"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownSubcommand(t *testing.T) {
	if err := run([]string{"fig99"}); err == nil {
		t.Error("unknown subcommand accepted")
	}
}

func TestRunMissingSubcommand(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("missing subcommand accepted")
	}
}

func TestRunUnknownBenchmark(t *testing.T) {
	if err := run([]string{"table2", "-benchmarks", "nope", "-q"}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestRunTinyTable2(t *testing.T) {
	err := run([]string{"table2", "-benchmarks", "zlib", "-execs", "1000", "-scale", "0.02", "-q"})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllExperimentsResolve keeps the `all` sweep whole: every name is a
// registered experiment, and the sweep runs in paper order from Figure 2 to
// the ensemble comparison.
func TestAllExperimentsResolve(t *testing.T) {
	registered := map[string]bool{}
	for _, e := range bench.Registry() {
		registered[e.Name] = true
	}
	for _, name := range allExperiments {
		if !registered[name] {
			t.Errorf("all lists %q, which is not in bench.Registry()", name)
		}
	}
	if first, last := allExperiments[0], allExperiments[len(allExperiments)-1]; first != "fig2" || last != "ensemble" {
		t.Errorf("all runs %s..%s, want fig2..ensemble", first, last)
	}
}
