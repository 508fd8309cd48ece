// Package parallel runs multi-instance fuzzing campaigns in the
// master–secondary configuration of the paper's §V-D: one master instance
// (the only one that may run the deterministic stages) plus secondaries, all
// fuzzing the same target with independent coverage maps and seed pools,
// periodically cross-pollinating their corpora.
//
// Instances share the template's coverage metric unless Config.Metrics gives
// each its own. That makes an ensemble campaign (the paper's §VI future
// work: edge, N-gram and context-sensitive instances cross-pollinating, as
// in EnFuzz) an ordinary campaign: a find interesting under one metric is
// re-judged under each peer's metric when the peer imports it.
//
// Instances run concurrently, one goroutine each, so throughput on their
// clocks captures the real scaling behaviour (shared last-level cache and
// memory-bandwidth pressure included — the effect Figure 9 plots).
// Synchronization happens at round boundaries with no instance running,
// which keeps every Fuzzer single-threaded, like AFL's on-disk sync. Every
// multi-instance campaign syncs through a dist.Syncer — a private in-memory
// dist.Hub unless Config.Syncer names a shared one — so there is exactly one
// exchange rule: merge peers' new inputs, dedup them, AND-merge coverage.
//
// The campaign is supervised: an instance that panics or errors mid-round is
// revived from its last sync-boundary checkpoint with exponential backoff,
// and only abandoned (not the whole campaign) once its restart budget is
// exhausted. The campaign itself fails only when every instance has.
//
// When the template fuzzer config carries a telemetry.Registry, every
// instance shares it: fuzzer counters aggregate campaign-wide, each instance
// publishes a campaign_instance_<i>_execs gauge, and supervisor decisions
// (revivals, abandonments) land in the registry's event log. All telemetry
// fields are atomic and nil-safe, so they are deliberately not part of the
// mutex-guarded state.
package parallel

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/bigmap/bigmap/internal/checkpoint"
	"github.com/bigmap/bigmap/internal/core"
	"github.com/bigmap/bigmap/internal/crash"
	"github.com/bigmap/bigmap/internal/dist"
	"github.com/bigmap/bigmap/internal/fuzzer"
	"github.com/bigmap/bigmap/internal/rng"
	"github.com/bigmap/bigmap/internal/target"
	"github.com/bigmap/bigmap/internal/telemetry"
)

// ErrNoInstances is returned when a campaign is configured with < 1
// instance.
var ErrNoInstances = errors.New("parallel: campaign needs at least one instance")

// ErrMetricCount is returned when Config.Metrics is non-empty and does not
// name exactly one metric per instance.
var ErrMetricCount = errors.New("parallel: Metrics needs one entry per instance")

// Config parameterizes a campaign.
type Config struct {
	// Instances is the number of concurrent fuzzers (the paper sweeps 1,
	// 4, 8, 12).
	Instances int
	// SyncEvery is the per-instance exec budget of one round; corpora are
	// exchanged between rounds. 0 means 20,000.
	SyncEvery uint64
	// Fuzzer is the per-instance template. Seed is perturbed per instance;
	// RunDeterministic is forced on for the master and off for
	// secondaries, per the standard configuration.
	Fuzzer fuzzer.Config
	// MasterDeterministic enables the deterministic stages on instance 0.
	MasterDeterministic bool
	// Metrics, when non-empty, gives instance i the coverage metric
	// Metrics[i] instead of the template's Fuzzer.Metric (an ensemble
	// campaign). Its length must equal Instances. Instances with different
	// metrics count coverage in different key spaces, so Report.MaxEdges
	// and UnionEdges do not compare across them; measure an ensemble's
	// coverage by exact replay of its queues (internal/covreport).
	Metrics []fuzzer.MetricFactory
	// MaxRestarts bounds how many times a crashed instance is revived from
	// its last sync-round checkpoint before it is marked failed and the
	// campaign continues without it. 0 means 3.
	MaxRestarts int
	// RestartBackoff is the pause before an instance's first revival; it
	// doubles on every subsequent revival of the same instance. 0 means
	// 10ms.
	RestartBackoff time.Duration
	// Syncer is the campaign's sync boundary (internal/dist): at every
	// round boundary each instance pushes its new queue entries, crash
	// buckets and virgin-map delta to it, then imports what its peers — in
	// this process or on other machines — published. nil means a private
	// dist.Hub when Instances >= 2 and no sync for a single instance; a
	// dist.Client shares the campaign through a bigmap-corpusd service.
	// Sync failures degrade the campaign to independent instances (logged
	// as sync_error events) instead of failing it; unacknowledged batches
	// are retried at the next boundary.
	Syncer dist.Syncer
	// Worker prefixes the per-instance worker names registered with
	// Syncer ("<Worker>-<instance>"). Prefixes must be unique among the
	// processes driving one campaign — reusing one resumes that worker's
	// server-side cursors, which is correct after a restart and wrong for
	// a concurrent duplicate. Empty means "local".
	Worker string
}

// Campaign is a running multi-instance fuzzing session.
type Campaign struct {
	prog    *target.Program
	fuzzers []*fuzzer.Fuzzer
	cfg     Config

	// Supervisor state: the last sync-boundary checkpoint per instance,
	// restart counters, and the terminal error of each abandoned instance
	// (nil while alive).
	snaps    []*checkpoint.FuzzerState
	restarts []int
	failed   []error

	// sleep is time.Sleep, replaceable in tests so backoff is observable
	// without slowing the suite. testFaultHook, when set, runs at the top
	// of every instance round — tests inject panics through it.
	sleep         func(time.Duration)
	testFaultHook func(instance int, f *fuzzer.Fuzzer)

	// jrng draws revival-backoff jitter. Deterministic in the campaign seed
	// so supervision replays identically, and consumed only on revival, so
	// it is deliberately not part of the checkpointed state: jitter shapes
	// when a revived instance restarts, never what it computes.
	jrng *rng.Source

	// progress holds the live counters behind Progress. Instance
	// goroutines publish into it mid-round, so it is the one piece of
	// campaign state shared across goroutines.
	progress progressState

	// tel is the shared observability registry, taken from the fuzzer
	// template config. The instances record into it directly (they share
	// it through their own configs); the campaign adds round/revival
	// bookkeeping and event-log entries. nil when telemetry is off.
	tel *telemetry.Registry

	// hub is the private hub a campaign without Config.Syncer syncs
	// through (nil when Config.Syncer is set or there is one instance):
	// soft state, rebuilt on Resume.
	hub *dist.Hub

	// peers are the instances' dist workers, exchanging through
	// Config.Syncer or the private hub (nil without either); peers[i] is
	// recreated alongside fuzzers[i] on revival and resume, since a
	// dist.Worker holds only soft state.
	peers    []*dist.Worker
	telUnion *telemetry.Gauge
}

// progressState is the campaign's live telemetry. Instance goroutines write
// it concurrently during a round and Progress may be called from any
// goroutine at any time, so every counter is published under mu instead of
// being read off the (single-threaded) fuzzers.
type progressState struct {
	mu sync.Mutex

	execs    []uint64 // guarded by mu; per-instance cumulative execs as of the last publish
	rounds   int      // guarded by mu; completed sync rounds
	revivals int      // guarded by mu; instance restarts from checkpoint
	failed   int      // guarded by mu; instances abandoned after exhausting restarts

	// Telemetry mirrors of the counters above. The handles are atomic and
	// nil-safe (nil when telemetry is off), so they sit outside the mutex.
	telExecs    []*telemetry.Gauge
	telRounds   *telemetry.Counter
	telRevivals *telemetry.Counter
	telFailed   *telemetry.Counter
}

func (p *progressState) noteExecs(i int, n uint64) {
	p.mu.Lock()
	p.execs[i] = n
	p.mu.Unlock()
	if i < len(p.telExecs) {
		p.telExecs[i].Set(int64(n))
	}
}

func (p *progressState) noteRound() {
	p.mu.Lock()
	p.rounds++
	p.mu.Unlock()
	p.telRounds.Inc()
}

func (p *progressState) noteRevival() {
	p.mu.Lock()
	p.revivals++
	p.mu.Unlock()
	p.telRevivals.Inc()
}

func (p *progressState) noteFailed() {
	p.mu.Lock()
	p.failed++
	p.mu.Unlock()
	p.telFailed.Inc()
}

// Progress is a point-in-time snapshot of campaign counters. Unlike Report,
// it is safe to take from any goroutine while a round is running: the
// numbers come from counters the instances publish, not from the fuzzers
// themselves.
type Progress struct {
	// Execs holds each instance's cumulative exec count as of its most
	// recent publish (the end of its last round slice).
	Execs []uint64
	// Rounds counts completed sync rounds.
	Rounds int
	// Revivals counts instance restarts from a sync-boundary checkpoint.
	Revivals int
	// Failed counts instances abandoned after exhausting their restart
	// budget.
	Failed int
}

// Progress returns the campaign's live counters. Safe to call concurrently
// with a running Run* call, which Report is not.
func (c *Campaign) Progress() Progress {
	p := &c.progress
	p.mu.Lock()
	defer p.mu.Unlock()
	return Progress{
		Execs:    append([]uint64(nil), p.execs...),
		Rounds:   p.rounds,
		Revivals: p.revivals,
		Failed:   p.failed,
	}
}

func withDefaults(cfg Config) Config {
	if cfg.SyncEvery == 0 {
		cfg.SyncEvery = 20000
	}
	if cfg.MaxRestarts == 0 {
		cfg.MaxRestarts = 3
	}
	if cfg.RestartBackoff == 0 {
		cfg.RestartBackoff = 10 * time.Millisecond
	}
	return cfg
}

// InstanceConfig derives instance i's fuzzer config from the campaign
// template: a per-instance seed perturbation, deterministic stages on the
// master only, and the instance's own metric when Metrics is set. Revival and resume rebuild configs through this same
// function, so a restarted instance is bitwise the campaign's original.
// Exported so out-of-process workers (bigmap-fuzz -join) can derive the
// exact per-instance configuration an in-process campaign would use —
// the differential tests depend on the two matching.
func InstanceConfig(cfg Config, i int) fuzzer.Config {
	fcfg := cfg.Fuzzer
	fcfg.Seed = fcfg.Seed*31 + uint64(i) + 1
	fcfg.RunDeterministic = cfg.MasterDeterministic && i == 0
	if len(cfg.Metrics) > 0 {
		fcfg.Metric = cfg.Metrics[i]
	}
	return fcfg
}

// validate checks the instance count and that Metrics, when set, has one
// entry per instance.
func validate(cfg Config) error {
	if cfg.Instances < 1 {
		return ErrNoInstances
	}
	if len(cfg.Metrics) > 0 && len(cfg.Metrics) != cfg.Instances {
		return fmt.Errorf("%w: %d metrics for %d instances", ErrMetricCount, len(cfg.Metrics), cfg.Instances)
	}
	return nil
}

func (c *Campaign) instanceCfg(i int) fuzzer.Config {
	return InstanceConfig(c.cfg, i)
}

func newShell(prog *target.Program, cfg Config) *Campaign {
	n := cfg.Instances
	c := &Campaign{
		prog:     prog,
		fuzzers:  make([]*fuzzer.Fuzzer, n),
		cfg:      cfg,
		snaps:    make([]*checkpoint.FuzzerState, n),
		restarts: make([]int, n),
		failed:   make([]error, n),
		sleep:    time.Sleep,
		jrng:     rng.New(cfg.Fuzzer.Seed ^ 0x6a17_7e5b_ac0f_5eed),
		tel:      cfg.Fuzzer.Telemetry,
	}
	c.progress.execs = make([]uint64, n)
	if r := c.tel; r != nil {
		c.progress.telExecs = make([]*telemetry.Gauge, n)
		for i := 0; i < n; i++ {
			c.progress.telExecs[i] = r.Gauge(fmt.Sprintf("campaign_instance_%d_execs", i))
		}
		c.progress.telRounds = r.Counter("campaign_rounds_total")
		c.progress.telRevivals = r.Counter("campaign_revivals_total")
		c.progress.telFailed = r.Counter("campaign_failed_instances_total")
		r.Gauge("campaign_instances").Set(int64(n))
	}
	return c
}

// NewCampaign builds the instances and dry-runs the shared seed corpus on
// each.
func NewCampaign(prog *target.Program, cfg Config, seeds [][]byte) (*Campaign, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	c := newShell(prog, withDefaults(cfg))
	for i := range c.fuzzers {
		f, err := fuzzer.New(prog, c.instanceCfg(i))
		if err != nil {
			return nil, fmt.Errorf("instance %d: %w", i, err)
		}
		if _, err := f.AddSeeds(seeds); err != nil {
			return nil, fmt.Errorf("instance %d: %w", i, err)
		}
		c.fuzzers[i] = f
	}
	if err := c.attachPeers(); err != nil {
		return nil, err
	}
	c.markBoundary()
	return c, nil
}

// unionSize is the campaign's coverage key space: the fuzzer template's
// defaulted map size, the geometry of the syncer's union.
func (c *Campaign) unionSize() int {
	size := c.cfg.Fuzzer.MapSize
	if size == 0 {
		size = core.MapSize64K
	}
	return size
}

// peerName is instance i's campaign-unique dist worker name.
func (c *Campaign) peerName(i int) string {
	prefix := c.cfg.Worker
	if prefix == "" {
		prefix = "local"
	}
	return fmt.Sprintf("%s-%d", prefix, i)
}

// attachPeers creates the per-instance dist workers, building the private
// hub first when the campaign has several instances and no Config.Syncer.
// Called once the fuzzers exist (construction and resume).
func (c *Campaign) attachPeers() error {
	syncer := c.cfg.Syncer
	if syncer == nil && len(c.fuzzers) >= 2 {
		hub, err := dist.NewHub(c.unionSize(), c.tel)
		if err != nil {
			return err
		}
		c.hub, syncer = hub, hub
	}
	if syncer == nil {
		return nil
	}
	c.telUnion = c.tel.Gauge("campaign_union_edges")
	c.peers = make([]*dist.Worker, len(c.fuzzers))
	for i, f := range c.fuzzers {
		w, err := dist.NewWorker(f, c.peerName(i), syncer, c.unionSize())
		if err != nil {
			return fmt.Errorf("instance %d: %w", i, err)
		}
		c.peers[i] = w
	}
	return nil
}

// rebuildHub restores a resumed campaign's private hub, which is soft state:
// every instance pushes its full queue, crashes and coverage, then every
// pull cursor is drained without importing anything. The hub ends up
// holding what the checkpointed campaign had exchanged, with every instance
// caught up, and no instance executes anything, so the campaign is still
// exactly its checkpoint.
func (c *Campaign) rebuildHub() error {
	for i, w := range c.peers {
		if _, err := w.Push(); err != nil {
			return fmt.Errorf("instance %d: rebuild hub: %w", i, err)
		}
	}
	for i, w := range c.peers {
		if _, err := c.hub.Pull(w.Name()); err != nil {
			return fmt.Errorf("instance %d: rebuild hub: %w", i, err)
		}
	}
	return nil
}

// Instances returns the per-instance fuzzers (for inspection).
func (c *Campaign) Instances() []*fuzzer.Fuzzer { return c.fuzzers }

// Telemetry returns the campaign's shared observability registry (from the
// fuzzer template config), nil when telemetry is off.
func (c *Campaign) Telemetry() *telemetry.Registry { return c.tel }

// RunExecs fuzzes until every live instance has executed at least
// perInstance test cases, in concurrent rounds of SyncEvery execs with
// corpus exchange in between.
func (c *Campaign) RunExecs(perInstance uint64) error {
	for !c.allReached(perInstance) {
		if err := c.round(func(f *fuzzer.Fuzzer) error {
			if f.Execs() >= perInstance {
				return nil
			}
			need := perInstance - f.Execs()
			if need > c.cfg.SyncEvery {
				need = c.cfg.SyncEvery
			}
			return f.RunExecs(need)
		}); err != nil {
			return err
		}
		c.sync()
		c.markBoundary()
	}
	return nil
}

// RunRounds fuzzes for exactly n sync rounds of SyncEvery additional execs
// per live instance. Unlike RunExecs, the schedule is split-invariant —
// RunRounds(k) followed by RunRounds(n-k) replays the exact same round and
// sync boundaries as RunRounds(n) — which makes it the right unit for
// checkpointed campaigns: a resumed campaign continues the original round
// schedule bit for bit.
func (c *Campaign) RunRounds(n int) error {
	for r := 0; r < n; r++ {
		if err := c.round(func(f *fuzzer.Fuzzer) error {
			return f.RunExecs(c.cfg.SyncEvery)
		}); err != nil {
			return err
		}
		c.sync()
		c.markBoundary()
	}
	return nil
}

// RunFor fuzzes until it has counted d and returns the time counted. Rounds
// are time-sliced (at most half a second each) rather than exec-counted so
// that slow configurations cannot overshoot the budget by a whole round, and
// corpora still cross-pollinate between slices. A round counts the largest
// advance of any instance's Clock over its slice and over the sync after it;
// with no execution charge that is wall time.
func (c *Campaign) RunFor(d time.Duration) (time.Duration, error) {
	var counted time.Duration
	for counted < d {
		slice := min(d-counted, 500*time.Millisecond)
		var mu sync.Mutex
		var longest time.Duration
		if err := c.round(func(f *fuzzer.Fuzzer) error {
			start := f.Clock()
			err := f.RunFor(slice)
			mu.Lock()
			defer mu.Unlock()
			longest = max(longest, f.Clock().Sub(start))
			return err
		}); err != nil {
			return counted, err
		}
		counted += longest + c.longestAdvance(func() {
			c.sync()
			c.markBoundary()
		})
	}
	return counted, nil
}

// longestAdvance runs fn and returns the largest advance of any live
// instance's clock across it.
func (c *Campaign) longestAdvance(fn func()) time.Duration {
	before := make([]time.Time, len(c.fuzzers))
	for i, f := range c.fuzzers {
		before[i] = f.Clock()
	}
	fn()
	var longest time.Duration
	for i, f := range c.fuzzers {
		if c.failed[i] == nil {
			longest = max(longest, f.Clock().Sub(before[i]))
		}
	}
	return longest
}

// round runs fn concurrently on every live instance, recovering panics.
// Instances that panicked or errored are revived from their last
// sync-boundary checkpoint (losing at most one round of work); an instance
// out of restarts is marked failed and skipped from here on. The returned
// error is non-nil only when no live instance remains.
func (c *Campaign) round(fn func(*fuzzer.Fuzzer) error) error {
	errs := make([]error, len(c.fuzzers))
	var wg sync.WaitGroup
	for i, f := range c.fuzzers {
		if c.failed[i] != nil {
			continue
		}
		wg.Add(1)
		go func(i int, f *fuzzer.Fuzzer) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("instance %d panicked: %v", i, r)
				}
			}()
			if c.testFaultHook != nil {
				c.testFaultHook(i, f)
			}
			errs[i] = fn(f)
			c.progress.noteExecs(i, f.Execs())
		}(i, f)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			c.reviveOrFail(i, err)
		}
	}
	if err := c.allFailedErr(); err != nil {
		return err
	}
	c.progress.noteRound()
	return nil
}

// reviveOrFail restarts instance i from its last checkpoint, backing off
// exponentially per attempt with deterministic jitter — several instances
// felled by the same round-level fault would otherwise sleep the exact same
// doubling sequence and stampede the executor in lockstep forever; when the
// restart budget runs out the instance is abandoned with its accumulated
// errors and the campaign carries on.
func (c *Campaign) reviveOrFail(i int, cause error) {
	for c.restarts[i] < c.cfg.MaxRestarts {
		c.restarts[i]++
		base := c.cfg.RestartBackoff << (c.restarts[i] - 1)
		c.sleep(base + jitter(c.jrng, base))
		f, err := fuzzer.Resume(c.prog, c.instanceCfg(i), c.snaps[i])
		if err == nil && c.peers != nil {
			// A dist.Worker wraps the dead fuzzer; rebuild it around the
			// revived one. Same name, so the syncer resumes this worker's
			// cursor and sequence chain. Failure here is a failed revival
			// attempt like any other.
			var w *dist.Worker
			if w, err = dist.NewWorker(f, c.peerName(i), c.peers[i].Syncer(), c.unionSize()); err == nil {
				c.peers[i] = w
			}
		}
		if err == nil {
			c.fuzzers[i] = f
			c.progress.noteRevival()
			c.progress.noteExecs(i, f.Execs())
			c.tel.Event("instance_revived",
				fmt.Sprintf("instance %d restart %d: %v", i, c.restarts[i], cause))
			return
		}
		cause = errors.Join(cause, fmt.Errorf("restart %d: %w", c.restarts[i], err))
	}
	c.failed[i] = cause
	c.progress.noteFailed()
	c.tel.Event("instance_failed", fmt.Sprintf("instance %d abandoned: %v", i, cause))
}

// jitter draws a uniform delay in [0, base/2] from src, decorrelating
// revivals that would otherwise fire in lockstep. Half the base keeps the
// worst-case pause under 1.5x the documented exponential sequence.
func jitter(src *rng.Source, base time.Duration) time.Duration {
	if base <= 0 {
		return 0
	}
	return time.Duration(src.Uint64() % (uint64(base)/2 + 1))
}

func (c *Campaign) allFailedErr() error {
	for _, err := range c.failed {
		if err == nil {
			return nil
		}
	}
	return fmt.Errorf("parallel: all instances failed: %w", errors.Join(c.failed...))
}

// markBoundary records every live instance's state as the revival point for
// the next round. Called with no instance running.
func (c *Campaign) markBoundary() {
	for i, f := range c.fuzzers {
		if c.failed[i] != nil {
			continue
		}
		c.snaps[i] = f.Snapshot()
	}
}

// sync runs the round boundary: every live instance pushes its new queue
// entries, crash buckets and virgin delta, then pulls and imports what its
// peers published, keeping the inputs that add local coverage (like AFL's
// sync_fuzzers). All pushes land before any pull, so within one process
// every instance sees every peer's finds of the round, in instance order.
// Failures never kill the campaign: the instance fuzzes on independently
// and the worker's pending batch is retried at the next boundary.
func (c *Campaign) sync() {
	for i, w := range c.peers {
		if c.failed[i] != nil {
			continue
		}
		if _, err := w.Push(); err != nil {
			c.noteSyncError(fmt.Sprintf("instance %d push: %v", i, err))
		}
	}
	for i, w := range c.peers {
		if c.failed[i] != nil {
			continue
		}
		if _, err := w.Pull(); err != nil {
			c.noteSyncError(fmt.Sprintf("instance %d pull: %v", i, err))
		}
		// Imports count as executions; refresh the per-instance gauge so
		// telemetry agrees with Report() at every sync boundary.
		c.progress.noteExecs(i, c.fuzzers[i].Execs())
	}
	c.telUnion.Set(int64(c.unionEdges()))
}

// unionEdges is the syncer's union coverage as of the latest accepted push
// any instance made: the union only grows, so the largest receipt is the
// newest, and reading it costs no round trip to the syncer.
func (c *Campaign) unionEdges() int {
	n := 0
	for _, w := range c.peers {
		n = max(n, w.UnionDiscovered())
	}
	return n
}

func (c *Campaign) noteSyncError(msg string) {
	c.tel.Counter("campaign_sync_errors_total").Inc()
	c.tel.Event("sync_error", msg)
}

func (c *Campaign) allReached(perInstance uint64) bool {
	for i, f := range c.fuzzers {
		if c.failed[i] != nil {
			continue
		}
		if f.Execs() < perInstance {
			return false
		}
	}
	return true
}

// Snapshot captures the whole campaign as a checkpoint struct. Call it only
// between Run calls (no instance mid-round). Failed instances contribute
// their last good checkpoint, so resuming the campaign revives them with a
// fresh restart budget.
func (c *Campaign) Snapshot() *checkpoint.CampaignState {
	st := &checkpoint.CampaignState{
		SyncEvery: c.cfg.SyncEvery,
		Instances: make([]checkpoint.FuzzerState, len(c.fuzzers)),
	}
	for i, f := range c.fuzzers {
		fs := c.snaps[i]
		if c.failed[i] == nil {
			fs = f.Snapshot()
		}
		st.Instances[i] = *fs
	}
	return st
}

// Resume reconstructs a campaign from a checkpoint. prog and cfg must be the
// campaign's originals (cfg.Instances may be zero to take the count from the
// checkpoint; a non-zero mismatch is an error). Every instance — including
// ones that had been marked failed — comes back live with a fresh restart
// budget, since a process restart is exactly the recovery a stuck instance
// needs.
func Resume(prog *target.Program, cfg Config, st *checkpoint.CampaignState) (*Campaign, error) {
	n := len(st.Instances)
	if n < 1 {
		return nil, ErrNoInstances
	}
	if cfg.Instances == 0 {
		cfg.Instances = n
	}
	if cfg.Instances != n {
		return nil, fmt.Errorf("parallel: resume instance count mismatch: config %d, checkpoint %d",
			cfg.Instances, n)
	}
	if err := validate(cfg); err != nil {
		return nil, err
	}
	if cfg.SyncEvery == 0 && st.SyncEvery != 0 {
		cfg.SyncEvery = st.SyncEvery
	}
	c := newShell(prog, withDefaults(cfg))
	for i := range c.fuzzers {
		f, err := fuzzer.Resume(prog, c.instanceCfg(i), &st.Instances[i])
		if err != nil {
			return nil, fmt.Errorf("instance %d: %w", i, err)
		}
		c.fuzzers[i] = f
	}
	if err := c.attachPeers(); err != nil {
		return nil, err
	}
	if c.hub != nil {
		if err := c.rebuildHub(); err != nil {
			return nil, err
		}
	}
	c.markBoundary()
	return c, nil
}

// Report aggregates campaign-level results.
type Report struct {
	// TotalExecs sums executions across instances.
	TotalExecs uint64
	// PerInstance holds each instance's stats snapshot.
	PerInstance []fuzzer.Stats
	// UniqueCrashes counts Crashwalk buckets across all instances (crash
	// keys are program-level, so the union is exact).
	UniqueCrashes int
	// MaxEdges is the best single-instance edge coverage.
	MaxEdges int
	// UnionEdges is the campaign-level union coverage — edges discovered by
	// any instance — as the syncer's union recorded it at the last round
	// boundary. 0 for a single-instance campaign without a syncer.
	UnionEdges int
	// Restarts sums instance revivals over the campaign's lifetime.
	Restarts int
	// FailedInstances counts instances abandoned after exhausting their
	// restart budget.
	FailedInstances int
	// Failures details every instance abandoned after exhausting its
	// restart budget: which instance, how many revivals were burned, and
	// the joined error chain. Empty when every instance is live — for
	// callers (the serve control plane) that surface per-instance health
	// instead of one campaign error.
	Failures []InstanceFailure
}

// InstanceFailure is one abandoned instance's terminal record.
type InstanceFailure struct {
	// Instance is the instance index within the campaign.
	Instance int
	// Restarts is the number of revivals consumed before abandonment
	// (always the campaign's MaxRestarts — the budget was exhausted).
	Restarts int
	// Err is the joined chain of the original fault and every failed
	// revival attempt.
	Err error
}

// Report snapshots the campaign.
func (c *Campaign) Report() Report {
	rep := Report{
		PerInstance: make([]fuzzer.Stats, len(c.fuzzers)),
	}
	union := crash.NewDeduper()
	for i, f := range c.fuzzers {
		st := f.Stats()
		rep.PerInstance[i] = st
		rep.TotalExecs += st.Execs
		if st.EdgesDiscovered > rep.MaxEdges {
			rep.MaxEdges = st.EdgesDiscovered
		}
		union.Merge(f.Crashes())
		rep.Restarts += c.restarts[i]
		if c.failed[i] != nil {
			rep.FailedInstances++
			rep.Failures = append(rep.Failures, InstanceFailure{
				Instance: i,
				Restarts: c.restarts[i],
				Err:      c.failed[i],
			})
		}
	}
	rep.UniqueCrashes = union.Unique()
	rep.UnionEdges = c.unionEdges()
	return rep
}
