package bench

import (
	"time"

	"github.com/bigmap/bigmap/internal/fuzzer"
	"github.com/bigmap/bigmap/internal/parallel"
	"github.com/bigmap/bigmap/internal/target"
)

// ScalingInstances is the instance-count sweep of Figures 9 and 10.
var ScalingInstances = []int{1, 4, 8, 12}

// ScalingMapSize is fixed to 2MB in the paper's scaling experiment.
const ScalingMapSize = 2 << 20

// ScalingDefaultBenchmarks keeps the default scaling sweep affordable.
var ScalingDefaultBenchmarks = []string{"libpng", "sqlite3", "gvn"}

// scalingCell is one (benchmark, scheme, instances) measurement.
type scalingCell struct {
	bench      string
	scheme     fuzzer.Scheme
	instances  int
	totalExecs uint64
	seconds    float64
	crashes    int
}

func (c scalingCell) throughput() float64 {
	return perSecond(c.totalExecs, c.seconds)
}

// ScalingResult carries the shared measurements behind Figures 9a, 9b
// and 10.
type ScalingResult struct {
	cells []scalingCell
}

// RunScaling measures parallel campaigns for both schemes across the
// instance sweep, each campaign running for the same time budget
// (secondsPerCell, counted by parallel.Campaign.RunFor: instance wall time
// plus the charged execution time), master–secondary configuration, 2MB
// maps — the setup of §V-D.
func RunScaling(opts Options, secondsPerCell float64) (*ScalingResult, error) {
	opts = opts.withDefaults()
	names := opts.Benchmarks
	if len(names) == 0 {
		names = ScalingDefaultBenchmarks
	}
	profiles, err := selectProfiles(target.Profiles(), names)
	if err != nil {
		return nil, err
	}

	res := &ScalingResult{}
	for _, p := range profiles {
		b, err := prepare(p, opts)
		if err != nil {
			return nil, err
		}
		for _, scheme := range GridSchemes {
			for _, n := range ScalingInstances {
				camp, err := parallel.NewCampaign(b.prog, parallel.Config{
					Instances:           n,
					SyncEvery:           opts.ExecsPerRun / 4,
					MasterDeterministic: false, // short runs skip deterministic (§V-A1)
					Fuzzer:              b.config(fuzzer.Config{Scheme: scheme, MapSize: ScalingMapSize}),
				}, b.seeds)
				if err != nil {
					return nil, err
				}
				counted, err := camp.RunFor(secondsToDuration(secondsPerCell))
				if err != nil {
					return nil, err
				}
				rep := camp.Report()
				cell := scalingCell{
					bench:      p.Name,
					scheme:     scheme,
					instances:  n,
					totalExecs: rep.TotalExecs,
					seconds:    counted.Seconds(),
					crashes:    rep.UniqueCrashes,
				}
				res.cells = append(res.cells, cell)
				opts.progressf("  fig9 %-12s %-7s n=%-2d %10.0f execs/s crashes=%d\n",
					p.Name, scheme, n, cell.throughput(), cell.crashes)
			}
		}
	}
	return res, nil
}

func (r *ScalingResult) cell(bench string, scheme fuzzer.Scheme, n int) (scalingCell, bool) {
	for _, c := range r.cells {
		if c.bench == bench && c.scheme == scheme && c.instances == n {
			return c, true
		}
	}
	return scalingCell{}, false
}

func (r *ScalingResult) benches() []string {
	var names []string
	seen := map[string]bool{}
	for _, c := range r.cells {
		if !seen[c.bench] {
			seen[c.bench] = true
			names = append(names, c.bench)
		}
	}
	return names
}

// Fig9a renders throughput normalized to the single-instance run of the
// same scheme, with the 1:1 ideal for reference.
func (r *ScalingResult) Fig9a() *Table {
	t := &Table{
		Title: "Figure 9(a): normalized throughput vs concurrent instances (2MB map)",
		Notes: []string{
			"paper shape: both sub-linear; BigMap scales much closer to 1:1",
			"scaling beyond the host's core count (nproc) is physically impossible",
		},
		Header: []string{"benchmark", "instances", "ideal", "afl", "bigmap"},
	}
	for _, name := range r.benches() {
		base := map[fuzzer.Scheme]float64{}
		for _, scheme := range GridSchemes {
			if c, ok := r.cell(name, scheme, 1); ok {
				base[scheme] = c.throughput()
			}
		}
		for _, n := range ScalingInstances {
			norm := func(scheme fuzzer.Scheme) string {
				c, ok := r.cell(name, scheme, n)
				if !ok || base[scheme] <= 0 {
					return "-"
				}
				return fmtFloat(c.throughput()/base[scheme], 2)
			}
			t.AddRow(name, fmtInt(n), fmtFloat(float64(n), 0),
				norm(fuzzer.SchemeAFL), norm(fuzzer.SchemeBigMap))
		}
	}
	return t
}

// Fig9b renders BigMap's speedup over AFL at equal instance counts, the
// ratio of total test cases generated.
func (r *ScalingResult) Fig9b() *Table {
	t := &Table{
		Title: "Figure 9(b): BigMap speedup over AFL vs instances (2MB map)",
		Notes: []string{
			"paper averages: 4.9x/9.2x/13.8x for 4/8/12 instances (super-linear);",
			"super-linearity needs as many physical cores as instances",
		},
		Header: []string{"benchmark", "instances", "speedup"},
	}
	avg := map[int][]float64{}
	for _, name := range r.benches() {
		for _, n := range ScalingInstances {
			a, okA := r.cell(name, fuzzer.SchemeAFL, n)
			b, okB := r.cell(name, fuzzer.SchemeBigMap, n)
			if !okA || !okB || a.totalExecs == 0 {
				continue
			}
			s := float64(b.totalExecs) / float64(a.totalExecs)
			avg[n] = append(avg[n], s)
			t.AddRow(name, fmtInt(n), fmtFloat(s, 2)+"x")
		}
	}
	for _, n := range ScalingInstances {
		if vals := avg[n]; len(vals) > 0 {
			t.AddRow("AVERAGE", fmtInt(n), fmtFloat(geoMean(vals), 2)+"x")
		}
	}
	return t
}

// Fig10 renders unique crashes vs instance count.
func (r *ScalingResult) Fig10() *Table {
	t := &Table{
		Title:  "Figure 10: unique crashes vs concurrent instances (2MB map)",
		Notes:  []string{"paper shape: BigMap finds more crashes as instances grow; AFL stalls"},
		Header: []string{"benchmark", "instances", "afl", "bigmap"},
	}
	for _, name := range r.benches() {
		for _, n := range ScalingInstances {
			a, okA := r.cell(name, fuzzer.SchemeAFL, n)
			b, okB := r.cell(name, fuzzer.SchemeBigMap, n)
			if !okA || !okB {
				continue
			}
			t.AddRow(name, fmtInt(n), fmtInt(a.crashes), fmtInt(b.crashes))
		}
	}
	return t
}

// secondsToDuration converts a float seconds value.
func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
