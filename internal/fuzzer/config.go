package fuzzer

import (
	"errors"
	"fmt"

	"github.com/bigmap/bigmap/internal/core"
	"github.com/bigmap/bigmap/internal/target"
	"github.com/bigmap/bigmap/internal/telemetry"
)

// Defaults mirroring AFL's config.h, scaled to the synthetic substrate.
const (
	// DefaultHavocRounds is the baseline number of havoc mutants per fuzz
	// round (AFL's HAVOC_CYCLES).
	DefaultHavocRounds = 256
	// DefaultSpliceRounds is the number of splice attempts per fuzz round
	// once the queue has at least two entries.
	DefaultSpliceRounds = 32
	// Skip probabilities from AFL: a non-favored entry is skipped with
	// probability skipToNewPct while favored entries are pending, else
	// with skipNfavOldPct (already fuzzed) or skipNfavNewPct.
	skipToNewPct   = 99
	skipNfavOldPct = 95
	skipNfavNewPct = 75
)

// ErrNoSeeds is returned when fuzzing starts with an empty queue.
var ErrNoSeeds = errors.New("fuzzer: no usable seeds in queue")

// Scheme selects the coverage map implementation.
type Scheme string

// Supported map schemes.
const (
	// SchemeAFL is the flat single-level bitmap (the baseline).
	SchemeAFL Scheme = "afl"
	// SchemeBigMap is the paper's two-level bitmap.
	SchemeBigMap Scheme = "bigmap"
)

// NewMapSlots constructs a coverage map with a bounded dense-slot region
// (BigMap only; slotCap <= 0 means unbounded, and the AFL scheme ignores it
// — a flat bitmap has no slot assignment to saturate).
func (s Scheme) NewMapSlots(size, slotCap int) (core.Map, error) {
	switch s {
	case SchemeAFL:
		return core.NewAFLMap(size)
	case SchemeBigMap:
		return core.NewBigMapSlots(size, slotCap)
	default:
		return nil, errors.New("fuzzer: unknown map scheme " + string(s))
	}
}

// MetricFactory builds a coverage metric sized for a map. core.NewEdgeMetric
// matched to the map size is the AFL default.
type MetricFactory func(mapSize int) (core.Metric, error)

// Config parameterizes a fuzzing instance. The zero value is completed by
// applyDefaults: 64kB AFL-scheme map, edge metric, deterministic stage
// skipped, and the merged classify+compare optimization on — the paper's
// experimental setup (§V-A1, §IV-E).
type Config struct {
	// Scheme picks the coverage map implementation.
	Scheme Scheme
	// MapSize is the coverage map size in slots (power of two).
	MapSize int
	// Metric builds the coverage metric (default: AFL edge metric).
	Metric MetricFactory
	// Seed seeds all randomness of this instance.
	Seed uint64
	// ExecBudget is the per-execution cycle budget (0 = executor default).
	ExecBudget uint64
	// ExecCostNs is the virtual time, in nanoseconds, charged per target
	// cycle executed: the native execution time a real target would take,
	// which the interpreter's own cost does not model. The charge advances
	// the instance's clock (Fuzzer.Clock, which RunFor reads) and never
	// touches fuzzing state. 0 (the default) leaves the clock on wall time.
	ExecCostNs float64
	// RunDeterministic enables AFL's deterministic stages for entries not
	// yet fuzzed. Off by default: the paper skips it for 24-hour runs, and
	// parallel mode enables it on the master only.
	RunDeterministic bool
	// SplitClassifyCompare disables the merged classify+compare traversal
	// (§IV-E) and runs the two passes separately, as vanilla AFL does.
	// Required to attribute time to the two phases separately (Figure 3).
	SplitClassifyCompare bool
	// Schedule selects the AFLFast power schedule (default: exploit, no
	// per-exec path accounting).
	Schedule PowerSchedule
	// EnableCmpLog turns on RedQueen-style input-to-state mutation: each
	// queue entry gets one compare-collection run, and every failed
	// comparison yields a targeted mutant patching the wanted operand into
	// the input.
	EnableCmpLog bool
	// HavocRounds and SpliceRounds bound the random stages per fuzz round
	// (0 = defaults).
	HavocRounds  int
	SpliceRounds int
	// Dict is an optional token dictionary for the mutation engine.
	Dict [][]byte
	// CalibrationRuns enables AFL-style calibration and verification: new
	// queue entries are re-executed this many times in total to average
	// their cost and detect unstable ("variable") coverage slots, and
	// crash/hang verdicts are verified by one re-run before being believed
	// (one-off spurious verdicts are quarantined, not filed). 0 disables
	// both — correct for the deterministic clean interpreter, where a
	// single run is already exact.
	CalibrationRuns int
	// Faults, when non-nil, wraps the target in the fault-injecting runner
	// (see target.FaultProfile): flaky edges, spurious crash/hang verdicts
	// and cycle jitter, all deterministic in the profile seed.
	Faults *target.FaultProfile
	// SlotCap bounds BigMap's dense slot region (0 = unbounded). When the
	// target produces more distinct coverage keys than SlotCap, the map
	// saturates: excess keys are dropped and counted (Stats.DroppedKeys,
	// Stats.MapSaturated) instead of corrupting existing coverage.
	SlotCap int
	// Telemetry, when non-nil, wires the instance into the observability
	// registry: exec and per-stage timing histograms, progress counters, and
	// per-operation map timings (the coverage map is instrumented through
	// core.Instrumented). nil — the default — keeps the hot loop entirely
	// telemetry-free: record sites reduce to nil checks and no clock reads.
	Telemetry *telemetry.Registry
}

// applyDefaults fills zero fields in place and validates.
func (c *Config) applyDefaults() error {
	if c.Scheme == "" {
		c.Scheme = SchemeAFL
	}
	if c.MapSize == 0 {
		c.MapSize = core.MapSize64K
	}
	if c.Metric == nil {
		c.Metric = func(size int) (core.Metric, error) { return core.NewEdgeMetric(size) }
	}
	if c.HavocRounds == 0 {
		c.HavocRounds = DefaultHavocRounds
	}
	if c.SpliceRounds == 0 {
		c.SpliceRounds = DefaultSpliceRounds
	}
	if !(c.ExecCostNs >= 0) {
		return fmt.Errorf("fuzzer: ExecCostNs %v is not a non-negative number", c.ExecCostNs)
	}
	return validateSchedule(c.Schedule)
}
