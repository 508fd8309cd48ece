// Package bigmap is a from-scratch Go reproduction of BigMap
// ("BigMap: Future-proofing Fuzzers with Efficient Large Maps", DSN 2021):
// an adaptive two-level coverage bitmap that lets coverage-guided fuzzers
// use arbitrarily large coverage maps — suppressing hash collisions —
// without the per-testcase cost of traversing the full map.
//
// The package is a façade over the internal implementation and is the only
// import external users need. It exposes:
//
//   - the coverage maps (NewAFLMap baseline, NewBigMap) and coverage
//     metrics (edge, N-gram, context-sensitive),
//   - the synthetic instrumented-target substrate (Generate, Profiles)
//     standing in for clang-instrumented binaries,
//   - the laf-intel comparison-splitting pass (LafIntel),
//   - an AFL-style fuzzer (NewFuzzer) and parallel campaigns (NewCampaign),
//   - collision-rate analytics (CollisionRate, BirthdayProbability),
//   - live observability (NewTelemetry, WithTelemetry, TelemetryHandler):
//     an allocation-free metrics registry wired through the hot paths,
//     exposed as Prometheus text, JSON snapshots and pprof over HTTP.
//
// See the examples directory for runnable walkthroughs and DESIGN.md for
// the system inventory.
package bigmap

import (
	"net/http"

	"github.com/bigmap/bigmap/internal/checkpoint"
	"github.com/bigmap/bigmap/internal/collision"
	"github.com/bigmap/bigmap/internal/core"
	"github.com/bigmap/bigmap/internal/covreport"
	"github.com/bigmap/bigmap/internal/fuzzer"
	"github.com/bigmap/bigmap/internal/lafintel"
	"github.com/bigmap/bigmap/internal/output"
	"github.com/bigmap/bigmap/internal/parallel"
	"github.com/bigmap/bigmap/internal/rng"
	"github.com/bigmap/bigmap/internal/target"
	"github.com/bigmap/bigmap/internal/telemetry"
	"github.com/bigmap/bigmap/internal/tmin"
)

// Core coverage-map types, re-exported from the implementation.
type (
	// Map is the scheme-agnostic coverage map interface; AFLMap and
	// BigMap implement it.
	Map = core.Map
	// AFLMap is the flat single-level baseline bitmap.
	AFLMap = core.AFLMap
	// BigMap is the paper's adaptive two-level bitmap.
	BigMap = core.BigMap
	// Virgin is the global-coverage companion map.
	Virgin = core.Virgin
	// Verdict reports what a trace added over global coverage.
	Verdict = core.Verdict
	// Metric converts basic-block events into coverage keys.
	Metric = core.Metric
)

// Verdicts (AFL's has_new_bits results).
const (
	VerdictNone      = core.VerdictNone
	VerdictNewCounts = core.VerdictNewCounts
	VerdictNewEdges  = core.VerdictNewEdges
)

// Common coverage-map sizes from the paper's evaluation.
const (
	MapSize64K  = core.MapSize64K
	MapSize256K = core.MapSize256K
	MapSize2M   = core.MapSize2M
	MapSize8M   = core.MapSize8M
)

// NewAFLMap creates the flat baseline map (size must be a power of two).
func NewAFLMap(size int) (*AFLMap, error) { return core.NewAFLMap(size) }

// NewBigMap creates the two-level map (size must be a power of two).
func NewBigMap(size int) (*BigMap, error) { return core.NewBigMap(size) }

// NewEdgeMetric creates AFL's edge hit-count metric.
func NewEdgeMetric(mapSize int) (Metric, error) { return core.NewEdgeMetric(mapSize) }

// NewNGramMetric creates the N-gram partial-path metric (n >= 2).
func NewNGramMetric(mapSize, n int) (Metric, error) { return core.NewNGramMetric(mapSize, n) }

// NewContextMetric creates the context-sensitive edge metric.
func NewContextMetric(mapSize int) (Metric, error) { return core.NewContextMetric(mapSize) }

// ClassifyByte exposes AFL's hit-count bucketing for documentation and
// tooling.
func ClassifyByte(count byte) byte { return core.ClassifyByte(count) }

// Target substrate types.
type (
	// Program is a synthetic instrumented target.
	Program = target.Program
	// GenSpec parameterizes program generation.
	GenSpec = target.GenSpec
	// Profile is one of the paper's Table II / Table III benchmarks.
	Profile = target.Profile
	// Interp executes a Program.
	Interp = target.Interp
	// Result describes one execution.
	Result = target.Result
	// Tracer receives instrumentation events.
	Tracer = target.Tracer
)

// Execution statuses.
const (
	StatusOK    = target.StatusOK
	StatusCrash = target.StatusCrash
	StatusHang  = target.StatusHang
)

// Generate builds a synthetic program from spec.
func Generate(spec GenSpec) (*Program, error) { return target.Generate(spec) }

// NewInterp creates an interpreter that executes prog directly (the fuzzer
// does this internally; tooling and benchmarks can drive single executions).
func NewInterp(prog *Program) *Interp { return target.NewInterp(prog) }

// Profiles returns the 19 Table II benchmark profiles.
func Profiles() []Profile { return target.Profiles() }

// CompositionProfiles returns the 13 Table III LLVM harness profiles.
func CompositionProfiles() []Profile { return target.CompositionProfiles() }

// ProfileByName looks a profile up by benchmark name.
func ProfileByName(name string) (Profile, bool) { return target.ProfileByName(name) }

// SynthesizeSeeds generates n plausible seed inputs for prog by taking
// randomized branch-solving walks over its CFG — the stand-in for a real
// campaign's seed files. Deterministic in seed.
func SynthesizeSeeds(prog *Program, seed uint64, n int) [][]byte {
	return prog.SampleSeeds(rng.New(seed), n)
}

// LafIntelStats reports what the laf-intel pass did.
type LafIntelStats = lafintel.Stats

// LafIntel applies the laf-intel transformation (multi-byte comparison
// splitting and switch deconstruction) to a program, returning the
// transformed program and amplification statistics.
func LafIntel(p *Program, seed uint64) (*Program, LafIntelStats) {
	return lafintel.Transform(p, seed)
}

// Fuzzing types.
type (
	// Fuzzer is a single AFL-style fuzzing instance.
	Fuzzer = fuzzer.Fuzzer
	// FuzzerConfig is the full configuration struct (functional options
	// cover the common cases).
	FuzzerConfig = fuzzer.Config
	// Stats is a fuzzing progress snapshot.
	Stats = fuzzer.Stats
	// Scheme selects the coverage-map implementation.
	Scheme = fuzzer.Scheme
	// Campaign is a parallel master–secondary fuzzing session.
	Campaign = parallel.Campaign
	// CampaignConfig parameterizes a Campaign.
	CampaignConfig = parallel.Config
	// CampaignReport aggregates campaign results.
	CampaignReport = parallel.Report
)

// Map schemes.
const (
	SchemeAFL    = fuzzer.SchemeAFL
	SchemeBigMap = fuzzer.SchemeBigMap
)

// Option customizes a fuzzing instance.
type Option func(*fuzzer.Config)

// WithScheme selects the coverage-map scheme (default SchemeAFL).
func WithScheme(s Scheme) Option { return func(c *fuzzer.Config) { c.Scheme = s } }

// WithMapSize sets the coverage-map size (default 64kB).
func WithMapSize(size int) Option { return func(c *fuzzer.Config) { c.MapSize = size } }

// WithSeed seeds the instance's randomness.
func WithSeed(seed uint64) Option { return func(c *fuzzer.Config) { c.Seed = seed } }

// WithNGram switches coverage to the N-gram metric.
func WithNGram(n int) Option {
	return func(c *fuzzer.Config) {
		c.Metric = func(size int) (core.Metric, error) { return core.NewNGramMetric(size, n) }
	}
}

// WithContextMetric switches coverage to context-sensitive edges.
func WithContextMetric() Option {
	return func(c *fuzzer.Config) {
		c.Metric = func(size int) (core.Metric, error) { return core.NewContextMetric(size) }
	}
}

// WithDeterministicStages enables AFL's deterministic mutation stages.
func WithDeterministicStages() Option {
	return func(c *fuzzer.Config) { c.RunDeterministic = true }
}

// WithSplitClassifyCompare disables the merged classify+compare
// optimization (§IV-E), running the two passes separately like vanilla AFL.
func WithSplitClassifyCompare() Option {
	return func(c *fuzzer.Config) { c.SplitClassifyCompare = true }
}

// WithDictionary supplies mutation dictionary tokens.
func WithDictionary(dict [][]byte) Option {
	return func(c *fuzzer.Config) { c.Dict = dict }
}

// WithExecBudget sets the per-execution virtual cycle budget (hang
// detection).
func WithExecBudget(budget uint64) Option {
	return func(c *fuzzer.Config) { c.ExecBudget = budget }
}

// WithPowerSchedule selects an AFLFast-style power schedule ("fast",
// "explore", "coe", "lin", "quad"; default AFL's exploit behaviour).
func WithPowerSchedule(name string) Option {
	return func(c *fuzzer.Config) { c.Schedule = fuzzer.PowerSchedule(name) }
}

// WithCmpLog enables RedQueen-style input-to-state mutation: failed
// comparisons observed at runtime are patched directly into the input,
// solving magic-value roadblocks without laf-intel's edge amplification.
func WithCmpLog() Option {
	return func(c *fuzzer.Config) { c.EnableCmpLog = true }
}

// WithCalibration re-executes every new queue entry n times to measure
// target stability: edges that flicker across the runs are recorded as
// variable and excluded from coverage verdicts, AFL's calibrate_case.
// n <= 1 disables calibration.
func WithCalibration(n int) Option {
	return func(c *fuzzer.Config) { c.CalibrationRuns = n }
}

// FaultProfile configures the fault-injecting target wrapper: flaky edges,
// spurious crash/hang verdicts and cycle jitter, all deterministic in the
// profile seed.
type FaultProfile = target.FaultProfile

// SpuriousCrashSite is the crash site reported by injected (fake) crashes.
const SpuriousCrashSite = target.SpuriousCrashSite

// WithFaultProfile wraps the target in the fault injector — the test rig
// for calibration, verdict quarantine and checkpoint robustness against
// real-world target misbehaviour.
func WithFaultProfile(p FaultProfile) Option {
	return func(c *fuzzer.Config) { prof := p; c.Faults = &prof }
}

// WithSlotCap bounds the BigMap's dense-slot region. When the cap fills,
// the map saturates gracefully: new keys are counted as dropped and fuzzing
// continues on established coverage (Stats reports MapSaturated and
// DroppedKeys). 0 means the full map.
func WithSlotCap(n int) Option {
	return func(c *fuzzer.Config) { c.SlotCap = n }
}

// NewFuzzer creates a fuzzing instance for prog.
func NewFuzzer(prog *Program, opts ...Option) (*Fuzzer, error) {
	var cfg fuzzer.Config
	for _, opt := range opts {
		opt(&cfg)
	}
	return fuzzer.New(prog, cfg)
}

// NewCampaign creates a parallel master–secondary campaign over shared
// seeds.
func NewCampaign(prog *Program, cfg CampaignConfig, seeds [][]byte) (*Campaign, error) {
	return parallel.NewCampaign(prog, cfg, seeds)
}

// Observability types, re-exported from internal/telemetry.
type (
	// TelemetryRegistry is the process-wide metrics and event registry.
	// A nil registry is valid everywhere and means "telemetry off": record
	// sites reduce to nil checks with no clock reads or allocations.
	TelemetryRegistry = telemetry.Registry
	// TelemetrySnapshot is a point-in-time copy of every metric.
	TelemetrySnapshot = telemetry.Snapshot
)

// NewTelemetry creates an observability registry to share across fuzzers and
// campaigns.
func NewTelemetry() *TelemetryRegistry { return telemetry.New() }

// WithTelemetry wires a fuzzing instance into an observability registry:
// per-exec and per-stage timing histograms, progress counters, and
// per-operation coverage-map timings. Instances sharing a registry aggregate
// into the same metrics.
func WithTelemetry(r *TelemetryRegistry) Option {
	return func(c *fuzzer.Config) { c.Telemetry = r }
}

// TelemetryHandler serves a registry over HTTP: /metrics (Prometheus text
// format), /stats (JSON snapshot) and /debug/pprof/. Safe with a nil
// registry (metrics endpoints answer 503; pprof still works).
func TelemetryHandler(r *TelemetryRegistry) http.Handler { return telemetry.Handler(r) }

// Checkpoint types: serialized campaign state, written atomically with a
// versioned, checksummed framing (see DESIGN.md §9).
type (
	// FuzzerCheckpoint is one instance's complete serialized state.
	FuzzerCheckpoint = checkpoint.FuzzerState
	// CampaignCheckpoint is a multi-instance campaign's serialized state.
	CampaignCheckpoint = checkpoint.CampaignState
)

// SaveFuzzerCheckpoint snapshots f and writes it to path atomically
// (temp file + rename: a crash mid-write never destroys the previous
// snapshot). Call between Run calls, never concurrently with fuzzing.
// When the instance carries a telemetry registry, the encode+write duration
// and the snapshot size are recorded (checkpoint_save_ns,
// checkpoint_saved_bytes).
func SaveFuzzerCheckpoint(path string, f *Fuzzer) error {
	r := f.Telemetry()
	h := r.Histogram("checkpoint_save_ns")
	t0 := h.Start()
	data := checkpoint.EncodeFuzzer(f.Snapshot())
	err := checkpoint.Save(path, data)
	h.Done(t0)
	r.Gauge("checkpoint_saved_bytes").Set(int64(len(data)))
	return err
}

// LoadFuzzerCheckpoint reads and validates a fuzzer checkpoint; corrupt or
// truncated files are rejected, not guessed at.
func LoadFuzzerCheckpoint(path string) (*FuzzerCheckpoint, error) {
	return checkpoint.LoadFuzzer(path)
}

// ResumeFuzzer reconstructs a fuzzing instance from a checkpoint. prog and
// opts must be the campaign's originals; the resumed instance continues the
// interrupted campaign exactly (identical coverage, queue, stats and RNG
// streams).
func ResumeFuzzer(prog *Program, st *FuzzerCheckpoint, opts ...Option) (*Fuzzer, error) {
	var cfg fuzzer.Config
	for _, opt := range opts {
		opt(&cfg)
	}
	return fuzzer.Resume(prog, cfg, st)
}

// SaveCampaignCheckpoint snapshots a campaign (between Run calls) and
// writes it to path atomically, recording the duration and snapshot size
// when the campaign carries a telemetry registry.
func SaveCampaignCheckpoint(path string, c *Campaign) error {
	r := c.Telemetry()
	h := r.Histogram("checkpoint_save_ns")
	t0 := h.Start()
	data := checkpoint.EncodeCampaign(c.Snapshot())
	err := checkpoint.Save(path, data)
	h.Done(t0)
	r.Gauge("checkpoint_saved_bytes").Set(int64(len(data)))
	return err
}

// LoadCampaignCheckpoint reads and validates a campaign checkpoint.
func LoadCampaignCheckpoint(path string) (*CampaignCheckpoint, error) {
	return checkpoint.LoadCampaign(path)
}

// ResumeCampaign reconstructs a parallel campaign from a checkpoint; every
// instance — including ones the supervisor had abandoned — comes back live
// with a fresh restart budget.
func ResumeCampaign(prog *Program, cfg CampaignConfig, st *CampaignCheckpoint) (*Campaign, error) {
	return parallel.Resume(prog, cfg, st)
}

// Session persists a fuzzing campaign in an AFL-style output directory
// (queue/, crashes/, fuzzer_stats, plot_data).
type Session = output.Session

// NewSession creates (or reopens) an output directory.
func NewSession(dir string) (*Session, error) { return output.NewSession(dir) }

// LoadCorpus reads every file of a directory as a seed corpus (sorted by
// name), e.g. a previous session's queue/.
func LoadCorpus(dir string) ([][]byte, error) { return output.LoadCorpus(dir) }

// Minimizer shrinks and normalizes crashing inputs while preserving their
// crash bucket (the afl-tmin role).
type Minimizer = tmin.Minimizer

// MinimizeStats reports a minimization outcome.
type MinimizeStats = tmin.Stats

// ErrNotACrash is returned by Minimizer.Minimize for benign inputs.
var ErrNotACrash = tmin.ErrNotACrash

// NewMinimizer creates a crash minimizer for prog. budget is the
// per-execution cycle budget (0 = default); maxExecs bounds one
// minimization (0 = default).
func NewMinimizer(prog *Program, budget uint64, maxExecs int) *Minimizer {
	return tmin.New(prog, budget, maxExecs)
}

// CoverageReport replays corpora with exact, collision-free edge identities
// — the paper's §V-A3 bias-free independent coverage build.
type CoverageReport = covreport.Report

// NewCoverageReport creates an exact-coverage replayer for prog.
func NewCoverageReport(prog *Program, budget uint64) *CoverageReport {
	return covreport.New(prog, budget)
}

// CollisionRate evaluates the paper's Equation 1: the expected collision
// rate of n uniform draws from a hash space of size h.
func CollisionRate(h, n int) (float64, error) { return collision.Rate(h, n) }

// BirthdayProbability returns the probability of at least one collision
// among n uniform draws from a hash space of size h.
func BirthdayProbability(h, n int) (float64, error) { return collision.BirthdayProbability(h, n) }

// MeasureCollisions computes the empirical collision rate of a key
// sequence.
func MeasureCollisions(keys []uint32) float64 { return collision.Measure(keys) }
