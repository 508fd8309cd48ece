package bench

import (
	"fmt"
	"io"
	"math"

	"github.com/bigmap/bigmap/internal/covreport"
	"github.com/bigmap/bigmap/internal/fuzzer"
	"github.com/bigmap/bigmap/internal/rng"
	"github.com/bigmap/bigmap/internal/target"
)

// seedExecNs is the virtual execution time charged to an average seed
// execution of every benchmark, whatever its scale: the paper's regime,
// where execution dominates map work at a 64kB map (Figure 3). It is 24,000
// units of the former CPU spin at its measured 2.73 ns per unit (2-vCPU
// Intel Xeon VM, Go 1.24).
const seedExecNs = 24000 * 2.73

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

// bencher caches a generated program, its seed corpus, and the campaign
// seed, exec budget and calibrated execution charge shared by every cell of
// the benchmark. Every driver builds its fuzzers through it.
type bencher struct {
	profile target.Profile
	prog    *target.Program
	seeds   [][]byte
	seed    uint64
	execs   uint64
	costNs  float64 // fuzzer.Config.ExecCostNs
}

// prepare generates the benchmark program, synthesizes its seed corpus, and
// calibrates the execution charge so an average seed execution is charged
// seedExecNs whatever the program's scale.
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
		seed:    opts.Seed,
		execs:   opts.ExecsPerRun,
	}
	b.costNs = calibrateCost(prog, b.seeds)
	return b, nil
}

// config completes a cell's configuration with the fields every cell of
// the benchmark shares: the campaign seed and the execution charge.
func (b *bencher) config(cfg fuzzer.Config) fuzzer.Config {
	cfg.Seed = b.seed
	cfg.ExecCostNs = b.costNs
	return cfg
}

// fuzzer builds a fuzzer over prog (the benchmark program or a transform
// of it) and dry-runs the benchmark's seed corpus.
func (b *bencher) fuzzer(prog *target.Program, cfg fuzzer.Config) (*fuzzer.Fuzzer, error) {
	f, err := fuzzer.New(prog, b.config(cfg))
	if err != nil {
		return nil, err
	}
	if _, err := f.AddSeeds(b.seeds); err != nil {
		return nil, fmt.Errorf("bench %s: %w", b.profile.Name, err)
	}
	return f, nil
}

// run builds a seeded fuzzer, runs the exec budget and returns the fuzzer
// with the seconds the budget took on its clock: the fuzzer's wall time plus
// the execution time charged.
func (b *bencher) run(prog *target.Program, cfg fuzzer.Config) (*fuzzer.Fuzzer, float64, error) {
	f, err := b.fuzzer(prog, cfg)
	if err != nil {
		return nil, 0, err
	}
	start := f.Clock()
	if err := f.RunExecs(b.execs); err != nil {
		return nil, 0, err
	}
	return f, f.Clock().Sub(start).Seconds(), nil
}

// perSecond is a rate over an interval, 0 for an empty one.
func perSecond(n uint64, secs float64) float64 {
	if secs <= 0 {
		return 0
	}
	return float64(n) / secs
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

// calibrateCost derives the per-cycle execution charge from the average
// seed execution's cycles.
func calibrateCost(prog *target.Program, seeds [][]byte) float64 {
	ip := target.NewInterp(prog)
	var total uint64
	for _, s := range seeds {
		total += ip.Run(s, target.NopTracer{}, 1<<22).Cycles
	}
	avg := total / uint64(len(seeds))
	if avg == 0 {
		avg = 1
	}
	return seedExecNs / float64(avg)
}

// Cell is one measured fuzzing configuration.
type Cell struct {
	Benchmark     string
	Scheme        fuzzer.Scheme
	MapSize       int
	Execs         uint64
	Throughput    float64 // execs per second
	Edges         int
	UniqueCrashes int
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
				f, secs, err := b.run(b.prog, fuzzer.Config{Scheme: scheme, MapSize: size})
				if err != nil {
					return nil, fmt.Errorf("%s/%s/%s: %w", p.Name, scheme, fmtSize(size), err)
				}
				st := f.Stats()
				cell := Cell{
					Benchmark:     p.Name,
					Scheme:        scheme,
					MapSize:       size,
					Execs:         st.Execs,
					Throughput:    perSecond(st.Execs, secs),
					Edges:         st.EdgesDiscovered,
					UniqueCrashes: st.UniqueCrashes,
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
