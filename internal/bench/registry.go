package bench

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// Experiment is one runnable paper artifact: a named wrapper around the
// drivers in this package with a uniform signature, so the CLI dispatch, the
// `all` sweep and the declarative grid runner all execute experiments through
// one table instead of three hand-maintained switch statements.
type Experiment struct {
	Name  string
	Title string
	// Timing marks experiments whose measurement columns derive from wall
	// clock (throughput, seconds-per-phase). Their numbers are not
	// reproducible across runs, so the default reproducible grid excludes
	// them and the grid runner warns when a config pulls one in.
	Timing bool
	// Run executes the experiment and returns its tables in paper order.
	// seconds is the per-cell wall-clock budget; only time-budget
	// experiments read it.
	Run func(opts Options, seconds float64) ([]*Table, error)
}

// tables adapts the common one-table driver signature.
func tables(f func(Options) (*Table, error)) func(Options, float64) ([]*Table, error) {
	return func(opts Options, _ float64) ([]*Table, error) {
		t, err := f(opts)
		if err != nil {
			return nil, err
		}
		return []*Table{t}, nil
	}
}

// Registry returns every experiment in paper order. The slice is rebuilt per
// call so callers may not mutate shared state.
func Registry() []Experiment {
	return []Experiment{
		{Name: "fig2", Title: "collision-rate curves (Eq. 1)",
			Run: func(Options, float64) ([]*Table, error) {
				t, err := Fig2()
				if err != nil {
					return nil, err
				}
				return []*Table{t}, nil
			}},
		{Name: "fig3", Title: "runtime composition", Timing: true, Run: tables(Fig3)},
		{Name: "table2", Title: "benchmark characteristics", Run: tables(Table2)},
		{Name: "fig6", Title: "throughput, coverage and crash grids in one pass", Timing: true,
			Run: func(opts Options, _ float64) ([]*Table, error) {
				grid, err := RunFig678Grid(opts)
				if err != nil {
					return nil, err
				}
				return []*Table{grid.Fig6(), grid.Fig7(), grid.Fig8()}, nil
			}},
		{Name: "fig7", Title: "coverage grid",
			Run: func(opts Options, _ float64) ([]*Table, error) {
				grid, err := RunFig678Grid(opts)
				if err != nil {
					return nil, err
				}
				return []*Table{grid.Fig7()}, nil
			}},
		{Name: "fig8", Title: "crash grid",
			Run: func(opts Options, _ float64) ([]*Table, error) {
				grid, err := RunFig678Grid(opts)
				if err != nil {
					return nil, err
				}
				return []*Table{grid.Fig8()}, nil
			}},
		{Name: "fig78", Title: "coverage and crash grids in one pass",
			Run: func(opts Options, _ float64) ([]*Table, error) {
				grid, err := RunFig678Grid(opts)
				if err != nil {
					return nil, err
				}
				return []*Table{grid.Fig7(), grid.Fig8()}, nil
			}},
		{Name: "fig7t", Title: "coverage and crashes under a time budget", Timing: true,
			Run: func(opts Options, seconds float64) ([]*Table, error) {
				cov, crashes, err := Fig7TimeBudget(opts, seconds)
				if err != nil {
					return nil, err
				}
				return []*Table{cov, crashes}, nil
			}},
		{Name: "table3", Title: "laf-intel + N-gram composition", Run: tables(Table3)},
		{Name: "fig9", Title: "parallel scaling throughput and crashes in one pass", Timing: true,
			Run: func(opts Options, seconds float64) ([]*Table, error) {
				res, err := RunScaling(opts, seconds)
				if err != nil {
					return nil, err
				}
				return []*Table{res.Fig9a(), res.Fig9b(), res.Fig10()}, nil
			}},
		{Name: "fig10", Title: "parallel scaling coverage", Timing: true,
			Run: func(opts Options, seconds float64) ([]*Table, error) {
				res, err := RunScaling(opts, seconds)
				if err != nil {
					return nil, err
				}
				return []*Table{res.Fig10()}, nil
			}},
		{Name: "ablation", Title: "design-choice ablations", Timing: true, Run: tables(Ablation)},
		{Name: "dedup", Title: "dedup-bias demonstration", Run: tables(DedupBias)},
		{Name: "collafl", Title: "CollAFL related-work comparison", Run: tables(CollAFL)},
		{Name: "metrics", Title: "metric map-pressure sweep", Run: tables(Metrics)},
		{Name: "roadblocks", Title: "dict vs laf vs cmplog", Run: tables(Roadblocks)},
		{Name: "schedules", Title: "AFLFast power schedules on BigMap", Run: tables(Schedules)},
		{Name: "ensemble", Title: "ensemble vs stacking", Run: tables(EnsembleVsStacking)},
	}
}

// Lookup finds an experiment by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunExperiment executes a registered experiment by name. The tables of a
// Timing experiment carry a provenance note.
func RunExperiment(name string, opts Options, seconds float64) ([]*Table, error) {
	e, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q", name)
	}
	tables, err := e.Run(opts, seconds)
	if err != nil || !e.Timing {
		return tables, err
	}
	note := provenance(1, opts.withDefaults().Seed)
	for _, t := range tables {
		t.Notes = append(t.Notes, note)
	}
	return tables, nil
}

// provenance is the note a wall-clock table carries: the machine and the
// commit that measured it, and its repeats and seeds.
func provenance(repeats int, seed uint64) string {
	return fmt.Sprintf("measured on %s (nproc %d, GOMAXPROCS %d) at commit %s; %s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), buildCommit(), repeatNote(repeats, seed))
}

// repeatNote says how many runs a table aggregates and with which seeds;
// repeat r runs with seed+r.
func repeatNote(repeats int, seed uint64) string {
	if repeats == 1 {
		return fmt.Sprintf("1 run (seed %d)", seed)
	}
	return fmt.Sprintf("aggregated over %d repeats (seeds %d..%d); ± is sample stddev",
		repeats, seed, seed+uint64(repeats)-1)
}

// cpuModel is the host CPU's model name, or its architecture where
// /proc/cpuinfo does not give one.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

// buildCommit is the VCS revision the binary was built from, with +dirty
// for a modified tree, or "unknown" when the build did not stamp one (go
// test and plain go run do not).
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value[:min(len(s.Value), 12)]
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}
