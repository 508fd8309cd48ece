package bench

import (
	"fmt"
	"io"
	"math"
	"time"

	"github.com/bigmap/bigmap/internal/covreport"
	"github.com/bigmap/bigmap/internal/fuzzer"
	"github.com/bigmap/bigmap/internal/rng"
	"github.com/bigmap/bigmap/internal/target"
)

// execWorkUnits is the cost auto-calibration target: about 24,000 work
// units per average seed execution, roughly 15us of CPU.
const execWorkUnits = 24000

// Options tune experiment cost. Zero values select quick defaults suitable
// for a laptop run; the CLI exposes flags for full-scale sweeps.
type Options struct {
	// Scale scales the generated programs relative to the paper's
	// static-edge counts (default 0.05).
	Scale float64
	// ExecsPerRun is the test-case budget per configuration cell (default
	// 20,000; the paper's Figure 3 normalizes to one million).
	ExecsPerRun uint64
	// Seed drives all randomness (default 1).
	Seed uint64
	// MaxSeeds caps the synthesized seed corpus per benchmark (default 32;
	// Table II corpora reach 2,782 seeds, which quick runs cannot afford).
	MaxSeeds int
	// CostFactor simulates native execution cost per virtual cycle.
	// 0 (the default) auto-calibrates per benchmark so that an average
	// seed execution costs about execWorkUnits of CPU work regardless of
	// program scale — restoring the paper's regime where execution
	// dominates map operations at a 64kB map. Negative disables the
	// simulation entirely.
	CostFactor int
	// Trials averages each grid cell over this many runs with different
	// seeds (default 1; the paper uses an average of three runs, §V-B).
	Trials int
	// Benchmarks filters profiles by name (nil = experiment default set).
	Benchmarks []string
	// Progress, when non-nil, receives one line per completed cell.
	Progress io.Writer
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 0.05
	}
	if o.ExecsPerRun == 0 {
		o.ExecsPerRun = 20000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MaxSeeds == 0 {
		o.MaxSeeds = 32
	}
	if o.Trials == 0 {
		o.Trials = 1
	}
	return o
}

func (o Options) progressf(format string, args ...any) {
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, format, args...)
	}
}

// selectProfiles returns the requested subset of profiles, defaulting to
// all.
func selectProfiles(all []target.Profile, names []string) ([]target.Profile, error) {
	if len(names) == 0 {
		return all, nil
	}
	byName := make(map[string]target.Profile, len(all))
	for _, p := range all {
		byName[p.Name] = p
	}
	out := make([]target.Profile, 0, len(names))
	for _, n := range names {
		p, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("bench: unknown benchmark %q", n)
		}
		out = append(out, p)
	}
	return out, nil
}

// bencher caches a generated program, its seed corpus, and the calibrated
// execution-cost factor shared by every cell of the benchmark.
type bencher struct {
	profile    target.Profile
	prog       *target.Program
	seeds      [][]byte
	costFactor int
}

// prepare generates the benchmark program, synthesizes its seed corpus, and
// calibrates the simulated execution cost so an average seed execution
// costs execWorkUnits of CPU work whatever the program's scale.
func prepare(p target.Profile, opts Options) (*bencher, error) {
	prog, err := target.Generate(p.Spec(opts.Scale))
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", p.Name, err)
	}
	nSeeds := p.SeedCount
	if nSeeds > opts.MaxSeeds {
		nSeeds = opts.MaxSeeds
	}
	if nSeeds < 1 {
		nSeeds = 1
	}
	src := rng.New(opts.Seed ^ 0x5eed5eed)
	b := &bencher{
		profile: p,
		prog:    prog,
		seeds:   prog.SampleSeeds(src, nSeeds),
	}
	b.costFactor = calibrateCost(prog, b.seeds, opts)
	return b, nil
}

// exactEdges is the bias-free exact-edge coverage of the fuzzers' combined
// queues replayed on prog: the fair coverage measure across configurations
// whose maps or metrics count coverage differently (collisions, key
// spaces), as the paper's §V-A3 methodology prescribes.
func exactEdges(prog *target.Program, fuzzers ...*fuzzer.Fuzzer) int {
	cov := covreport.New(prog, 0)
	for _, f := range fuzzers {
		for _, e := range f.Queue().Entries() {
			cov.Add(e.Input)
		}
	}
	return cov.Edges()
}

// calibrateCost derives the per-cycle work factor from the average seed
// execution cost.
func calibrateCost(prog *target.Program, seeds [][]byte, opts Options) int {
	switch {
	case opts.CostFactor > 0:
		return opts.CostFactor
	case opts.CostFactor < 0:
		return 0
	}
	ip := target.NewInterp(prog)
	var total uint64
	for _, s := range seeds {
		total += ip.Run(s, target.NopTracer{}, 1<<22).Cycles
	}
	avg := total / uint64(len(seeds))
	if avg == 0 {
		avg = 1
	}
	factor := execWorkUnits / int(avg)
	if factor < 1 {
		factor = 1
	}
	return factor
}

// Cell is one measured fuzzing configuration.
type Cell struct {
	Benchmark     string
	Scheme        fuzzer.Scheme
	MapSize       int
	Execs         uint64
	Seconds       float64
	Throughput    float64 // execs per second
	Edges         int
	Paths         int
	UniqueCrashes int
	UsedKeys      int
}

// runCell measures one fuzzing configuration, averaging opts.Trials runs
// with distinct seeds (the paper's three-run averaging, §V-B).
func (b *bencher) runCell(scheme fuzzer.Scheme, mapSize int, opts Options) (Cell, error) {
	var acc Cell
	for trial := 0; trial < opts.Trials; trial++ {
		cell, err := b.runTrial(scheme, mapSize, opts, opts.Seed+uint64(trial)*1009)
		if err != nil {
			return Cell{}, err
		}
		acc.Benchmark = cell.Benchmark
		acc.Scheme = cell.Scheme
		acc.MapSize = cell.MapSize
		acc.Execs += cell.Execs
		acc.Seconds += cell.Seconds
		acc.Throughput += cell.Throughput
		acc.Edges += cell.Edges
		acc.Paths += cell.Paths
		acc.UniqueCrashes += cell.UniqueCrashes
		acc.UsedKeys += cell.UsedKeys
	}
	n := opts.Trials
	acc.Execs /= uint64(n)
	acc.Seconds /= float64(n)
	acc.Throughput /= float64(n)
	acc.Edges /= n
	acc.Paths /= n
	acc.UniqueCrashes /= n
	acc.UsedKeys /= n
	return acc, nil
}

// runTrial runs one fuzzing configuration once for the exec budget and
// measures wall-clock throughput.
func (b *bencher) runTrial(scheme fuzzer.Scheme, mapSize int, opts Options, seed uint64) (Cell, error) {
	f, err := fuzzer.New(b.prog, fuzzer.Config{
		Scheme:         scheme,
		MapSize:        mapSize,
		Seed:           seed,
		ExecCostFactor: b.costFactor,
	})
	if err != nil {
		return Cell{}, err
	}
	accepted := 0
	for _, s := range b.seeds {
		if err := f.AddSeed(s); err == nil {
			accepted++
		}
	}
	if accepted == 0 {
		return Cell{}, fmt.Errorf("bench %s: %w", b.profile.Name, fuzzer.ErrNoSeeds)
	}

	start := time.Now() //bigmap:nondeterministic-ok wall-clock throughput measurement is the product
	if err := f.RunExecs(opts.ExecsPerRun); err != nil {
		return Cell{}, err
	}
	elapsed := time.Since(start).Seconds() //bigmap:nondeterministic-ok wall-clock throughput measurement is the product

	st := f.Stats()
	cell := Cell{
		Benchmark:     b.profile.Name,
		Scheme:        scheme,
		MapSize:       mapSize,
		Execs:         st.Execs,
		Seconds:       elapsed,
		Edges:         st.EdgesDiscovered,
		Paths:         st.Paths,
		UniqueCrashes: st.UniqueCrashes,
		UsedKeys:      st.UsedKeys,
	}
	if elapsed > 0 {
		cell.Throughput = float64(st.Execs) / elapsed
	}
	return cell, nil
}

// RunGrid measures every (benchmark, scheme, map size) combination. The
// same generated program and seed corpus back all cells of a benchmark, so
// only the map configuration varies — the controlled comparison behind
// Figures 6, 7 and 8.
func RunGrid(profiles []target.Profile, schemes []fuzzer.Scheme, sizes []int, opts Options) ([]Cell, error) {
	opts = opts.withDefaults()
	cells := make([]Cell, 0, len(profiles)*len(schemes)*len(sizes))
	for _, p := range profiles {
		b, err := prepare(p, opts)
		if err != nil {
			return nil, err
		}
		for _, scheme := range schemes {
			for _, size := range sizes {
				cell, err := b.runCell(scheme, size, opts)
				if err != nil {
					return nil, fmt.Errorf("%s/%s/%s: %w", p.Name, scheme, fmtSize(size), err)
				}
				opts.progressf("  %-16s %-7s %-5s %8.0f execs/s  edges=%d crashes=%d\n",
					cell.Benchmark, cell.Scheme, fmtSize(cell.MapSize), cell.Throughput,
					cell.Edges, cell.UniqueCrashes)
				cells = append(cells, cell)
			}
		}
	}
	return cells, nil
}

// geoMean computes the geometric mean of positive values; zero inputs are
// skipped. Returns 0 for an empty input.
func geoMean(vals []float64) float64 {
	logSum := 0.0
	n := 0
	for _, v := range vals {
		if v <= 0 {
			continue
		}
		logSum += math.Log(v)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}
