package serve

import (
	"fmt"
	"regexp"

	"github.com/bigmap/bigmap/internal/checkpoint"
	"github.com/bigmap/bigmap/internal/core"
	"github.com/bigmap/bigmap/internal/dist"
	"github.com/bigmap/bigmap/internal/fuzzer"
	"github.com/bigmap/bigmap/internal/parallel"
	"github.com/bigmap/bigmap/internal/rng"
	"github.com/bigmap/bigmap/internal/target"
	"github.com/bigmap/bigmap/internal/telemetry"
)

// Bounds a single daemon enforces on every spec, so one malicious or
// fat-fingered submission cannot allocate the box away.
const (
	maxInstances  = 16
	maxRounds     = 1 << 20
	maxSyncEvery  = 1 << 20
	maxMapSize    = 8 << 20
	maxSeedCorpus = 1 << 12
)

// tenantRE pins tenant names to path- and header-safe characters.
var tenantRE = regexp.MustCompile(`^[A-Za-z0-9_-]{1,64}$`)

// SpecError marks a rejected submission (HTTP 400).
type SpecError struct{ msg string }

func (e *SpecError) Error() string { return "serve: bad spec: " + e.msg }

func specErrf(format string, args ...any) error {
	return &SpecError{msg: fmt.Sprintf(format, args...)}
}

// normalize fills defaults in place and validates against the daemon
// bounds. The normalized spec is what gets persisted, so a recovered
// campaign rebuilds from explicit values, never from defaulting rules that
// may drift across versions.
func (s *Spec) normalize() error {
	if _, ok := target.ProfileByName(s.Bench); !ok {
		return specErrf("unknown bench %q", s.Bench)
	}
	if s.Scale == 0 {
		s.Scale = 0.05
	}
	if s.Scale < 0 || s.Scale > 1 {
		return specErrf("scale %g out of (0, 1]", s.Scale)
	}
	if s.Scheme == "" {
		s.Scheme = string(fuzzer.SchemeBigMap)
	}
	if s.Scheme != string(fuzzer.SchemeAFL) && s.Scheme != string(fuzzer.SchemeBigMap) {
		return specErrf("unknown scheme %q", s.Scheme)
	}
	if s.MapSize == 0 {
		s.MapSize = core.MapSize64K
	}
	if s.MapSize < 0 || s.MapSize > maxMapSize {
		return specErrf("map_size %d out of (0, %d]", s.MapSize, maxMapSize)
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.SeedCorpus == 0 {
		s.SeedCorpus = 16
	}
	if s.SeedCorpus < 0 || s.SeedCorpus > maxSeedCorpus {
		return specErrf("seed_corpus %d out of (0, %d]", s.SeedCorpus, maxSeedCorpus)
	}
	if s.Instances == 0 {
		s.Instances = 1
	}
	if s.Instances < 0 || s.Instances > maxInstances {
		return specErrf("instances %d out of (0, %d]", s.Instances, maxInstances)
	}
	if s.SyncEvery == 0 {
		s.SyncEvery = 2000
	}
	if s.SyncEvery > maxSyncEvery {
		return specErrf("sync_every %d above %d", s.SyncEvery, maxSyncEvery)
	}
	if s.Rounds < 1 || s.Rounds > maxRounds {
		return specErrf("rounds %d out of [1, %d]", s.Rounds, maxRounds)
	}
	if s.SlotCap < 0 {
		return specErrf("slot_cap %d negative", s.SlotCap)
	}
	return nil
}

// buildProgram generates the spec's synthetic target. Deterministic: the
// profile embeds its own generation seed, so every materialization — fresh
// submit, crash recovery, daemon restart — fuzzes the identical program.
func (s Spec) buildProgram() (*target.Program, error) {
	profile, ok := target.ProfileByName(s.Bench)
	if !ok {
		return nil, specErrf("unknown bench %q", s.Bench)
	}
	prog, err := target.Generate(profile.Spec(s.Scale))
	if err != nil {
		return nil, fmt.Errorf("serve: generate %s: %w", s.Bench, err)
	}
	return prog, nil
}

// seeds synthesizes the campaign's seed corpus, keyed off the campaign seed
// exactly like bigmap-fuzz does.
func (s Spec) seeds(prog *target.Program) [][]byte {
	return prog.SampleSeeds(rng.New(s.Seed^0x5eed), s.SeedCorpus)
}

// campaignConfig derives the parallel.Config this spec runs under. reg is
// the per-campaign telemetry registry and syncer the campaign's corpus
// service attachment, nil when the daemon runs without one (both nil-safe);
// they are attached here rather than stored in the spec because they are
// runtime objects, recreated on every materialization.
func (s Spec) campaignConfig(reg *telemetry.Registry, syncer dist.Syncer) parallel.Config {
	return parallel.Config{
		Instances:           s.Instances,
		SyncEvery:           s.SyncEvery,
		MasterDeterministic: s.MasterDeterministic,
		Syncer:              syncer,
		Worker:              "serve",
		Fuzzer: fuzzer.Config{
			Scheme:    fuzzer.Scheme(s.Scheme),
			MapSize:   s.MapSize,
			Seed:      s.Seed,
			SlotCap:   s.SlotCap,
			Telemetry: reg,
		},
	}
}

// newCampaign materializes a fresh runtime for the spec.
func (s Spec) newCampaign(prog *target.Program, reg *telemetry.Registry, syncer dist.Syncer) (*parallel.Campaign, error) {
	c, err := parallel.NewCampaign(prog, s.campaignConfig(reg, syncer), s.seeds(prog))
	if err != nil {
		return nil, fmt.Errorf("serve: build campaign: %w", err)
	}
	return c, nil
}

// resumeCampaign materializes a runtime from a checkpoint. The spec must be
// the campaign's original (the store keeps it next to the checkpoint), so
// the resumed runtime is bitwise the interrupted one.
func (s Spec) resumeCampaign(prog *target.Program, st *checkpoint.CampaignState, reg *telemetry.Registry, syncer dist.Syncer) (*parallel.Campaign, error) {
	c, err := parallel.Resume(prog, s.campaignConfig(reg, syncer), st)
	if err != nil {
		return nil, fmt.Errorf("serve: resume campaign: %w", err)
	}
	return c, nil
}
