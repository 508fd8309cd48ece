package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/bigmap/bigmap/internal/checkpoint"
	"github.com/bigmap/bigmap/internal/crash"
	"github.com/bigmap/bigmap/internal/dist"
	"github.com/bigmap/bigmap/internal/rng"
	"github.com/bigmap/bigmap/internal/telemetry"
)

// Config parameterizes a daemon.
type Config struct {
	// Dir is the state directory: campaign metadata and checkpoints live
	// under Dir/campaigns/<id>/. Required.
	Dir string
	// Workers bounds the pool executing campaign rounds (default 2).
	Workers int
	// QuantumRounds is how many sync rounds a worker runs a campaign for
	// before handing it back to the fair-share queue (default 4). Smaller
	// quanta interleave tenants more finely at slightly higher scheduling
	// cost.
	QuantumRounds int
	// CheckpointEvery is the checkpoint cadence in completed rounds
	// (default 8). A worker crash can lose at most this many rounds of
	// work; the recovery re-runs them bit for bit.
	CheckpointEvery int
	// MaxActive bounds non-terminal campaigns daemon-wide; TenantQuota
	// bounds them per tenant. Submissions beyond either are shed with an
	// OverloadError (HTTP 429 + Retry-After). Defaults 64 and 8.
	MaxActive   int
	TenantQuota int
	// MaxRestarts is the per-campaign circuit breaker: a campaign whose
	// worker crashes more than this many times is marked failed instead of
	// being retried forever (default 3).
	MaxRestarts int
	// RestartBackoff is the pause before a crashed campaign is requeued;
	// it doubles per restart of the same campaign and carries deterministic
	// jitter of up to half the base (default 50ms).
	RestartBackoff time.Duration
	// RetryAfter is the client backoff hint attached to shed submissions
	// (default 2s).
	RetryAfter time.Duration
	// RequestTimeout is the per-request deadline the HTTP handler attaches
	// to every request context (default 30s).
	RequestTimeout time.Duration
	// SaveAttempts and SaveBackoff parameterize the retrying checkpoint
	// writer (defaults 3 and 10ms).
	SaveAttempts int
	SaveBackoff  time.Duration
	// Chaos enables POST /campaigns/{id}/kill, which makes the owning
	// worker simulate its own crash at the next round boundary — the
	// fault-injection hook the recovery tests and the CI smoke drive.
	Chaos bool
	// JitterSeed seeds the restart-jitter stream (default 1). Operational
	// randomness only — it never influences campaign state.
	JitterSeed uint64
	// CorpusURL, when set, attaches every campaign to a bigmap-corpusd
	// corpus service at that base URL: each campaign syncs through a
	// service campaign named after its ID, so workers elsewhere can join it
	// with bigmap-fuzz -join. An unreachable service degrades the campaign
	// to local-only sync (logged as a corpus_unreachable event), never
	// fails it.
	CorpusURL string
	// Telemetry is the daemon-level registry (queue depth, sheds,
	// restarts, lifecycle events). nil disables daemon metrics; campaigns
	// still get their own registries.
	Telemetry *telemetry.Registry
}

func withDefaults(cfg Config) Config {
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.QuantumRounds == 0 {
		cfg.QuantumRounds = 4
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 8
	}
	if cfg.MaxActive == 0 {
		cfg.MaxActive = 64
	}
	if cfg.TenantQuota == 0 {
		cfg.TenantQuota = 8
	}
	if cfg.MaxRestarts == 0 {
		cfg.MaxRestarts = 3
	}
	if cfg.RestartBackoff == 0 {
		cfg.RestartBackoff = 50 * time.Millisecond
	}
	if cfg.RetryAfter == 0 {
		cfg.RetryAfter = 2 * time.Second
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.SaveAttempts == 0 {
		cfg.SaveAttempts = 3
	}
	if cfg.SaveBackoff == 0 {
		cfg.SaveBackoff = 10 * time.Millisecond
	}
	if cfg.JitterSeed == 0 {
		cfg.JitterSeed = 1
	}
	return cfg
}

// Daemon is the control plane: the campaign registry, the fair-share run
// queue, the worker pool and the recovery machinery, behind the HTTP
// handler in http.go.
type Daemon struct {
	cfg   Config
	store *store
	reg   *telemetry.Registry

	mu sync.Mutex
	// campaigns indexes every known campaign by ID. guarded by mu.
	campaigns map[string]*campaign
	// queues holds each tenant's runnable FIFO and ring fixes the tenant
	// round-robin order (a slice, not map iteration, so scheduling never
	// depends on map order). rrNext is the ring cursor. All guarded by mu.
	queues map[string][]*campaign
	ring   []string
	rrNext int
	// draining and closed are the shutdown latches: draining pauses all
	// work gracefully, closed abandons it (the kill -9 path in tests).
	// stopped records that stopCh is closed. All guarded by mu.
	draining bool
	closed   bool
	stopped  bool
	// nextID feeds campaign ID allocation. guarded by mu.
	nextID int
	// jrng draws restart jitter. guarded by mu.
	jrng *rng.Source

	// cond signals workers when the queue gains work or shutdown starts;
	// it shares mu.
	cond *sync.Cond
	// stopCh wakes backoff timers on shutdown.
	stopCh chan struct{}
	// iomu serializes metadata writes: transitions for a campaign can be
	// requested from API goroutines and the owning worker, and interleaved
	// meta files must never mix two states.
	iomu sync.Mutex
	// wg tracks workers and backoff timers for Drain/Close.
	wg sync.WaitGroup

	telQueueDepth *telemetry.Gauge
	telActive     *telemetry.Gauge
	telShed       *telemetry.Counter
	telRestarts   *telemetry.Counter
	telSubmitted  *telemetry.Counter
	telFinished   *telemetry.Counter
}

// Open loads (or initializes) the state directory, recovers every persisted
// campaign — interrupted ones are requeued to resume from their newest
// checkpoint — and starts the worker pool.
func Open(cfg Config) (*Daemon, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("serve: Config.Dir is required")
	}
	cfg = withDefaults(cfg)
	st, err := newStore(cfg.Dir, cfg.SaveAttempts, cfg.SaveBackoff)
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		cfg:       cfg,
		store:     st,
		reg:       cfg.Telemetry,
		campaigns: make(map[string]*campaign),
		queues:    make(map[string][]*campaign),
		jrng:      rng.New(cfg.JitterSeed ^ 0x5e7e_11a5_3d0c_affe),
		stopCh:    make(chan struct{}),
	}
	d.cond = sync.NewCond(&d.mu)
	d.telQueueDepth = d.reg.Gauge("serve_queue_depth")
	d.telActive = d.reg.Gauge("serve_active_campaigns")
	d.telShed = d.reg.Counter("serve_shed_total")
	d.telRestarts = d.reg.Counter("serve_worker_restarts_total")
	d.telSubmitted = d.reg.Counter("serve_submitted_total")
	d.telFinished = d.reg.Counter("serve_finished_total")
	if err := d.recover(); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		d.wg.Add(1)
		go d.worker()
	}
	return d, nil
}

// recover rebuilds the in-memory registry from the state store. Campaigns
// the previous process left queued or running (a kill -9 mid-round) are
// requeued; paused and terminal ones keep their state. A campaign directory
// that does not load is skipped with a daemon event rather than failing
// startup — one corrupt tenant must not hold the box hostage. A checkpoint
// of another format version does fail startup, before anything is written:
// requeueing would fail the campaign durably, and the binary that wrote the
// file could no longer resume it.
func (d *Daemon) recover() error {
	ids, err := d.store.list()
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, id := range ids {
		// Reserve every on-disk ID — loadable or not — before anything else.
		// If an unloadable directory's ID were re-minted by a later Submit,
		// the new campaign would land in the stale directory and could
		// resume from another campaign's leftover checkpoints.
		if n, ok := parseID(id); ok && n >= d.nextID {
			d.nextID = n + 1
		}
		m, err := d.store.loadMeta(id)
		if err != nil {
			d.reg.Event("recovery_skipped", fmt.Sprintf("%s: %v", id, err))
			continue
		}
		c := &campaign{
			id:       id,
			tenant:   m.Tenant,
			spec:     m.Spec,
			state:    m.State,
			restarts: m.Restarts,
			errText:  m.Error,
			stats:    m.Stats,
			reg:      telemetry.New(),
		}
		// Derive the recovered round count from the newest checkpoint that
		// actually decodes — trusting the newest filename alone would let a
		// corrupt file make Info promise rounds that materialize() must then
		// walk back to an older checkpoint.
		_, rounds, err := d.store.loadCheckpoint(id)
		switch {
		case err == nil:
			c.chkRounds = rounds
			c.rounds = rounds
		case errors.Is(err, checkpoint.ErrVersion):
			return err
		}
		d.campaigns[id] = c
		switch m.State {
		case StateQueued, StateRunning:
			// Running on disk means the previous daemon died mid-round;
			// the newest checkpoint is the truth, so back to the queue.
			c.state = StateQueued
			d.enqueueLocked(c)
			d.reg.Event("recovered", fmt.Sprintf("%s requeued at round %d", id, c.rounds))
		}
	}
	d.updateGaugesLocked()
	return nil
}

const idPrefix = "c"

func formatID(n int) string { return fmt.Sprintf("%s%06d", idPrefix, n) }

func parseID(id string) (int, bool) {
	if !strings.HasPrefix(id, idPrefix) {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimPrefix(id, idPrefix))
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// Submit validates, persists and enqueues a new campaign, returning its
// public view. Quota violations return *OverloadError; spec problems return
// *SpecError; a draining daemon returns ErrDraining.
func (d *Daemon) Submit(ctx context.Context, req SubmitRequest) (*Info, error) {
	_ = ctx // submissions are short; the HTTP layer enforces the deadline
	tenant := req.Tenant
	if tenant == "" {
		tenant = "default"
	}
	if !tenantRE.MatchString(tenant) {
		return nil, specErrf("tenant %q (want %s)", tenant, tenantRE)
	}
	spec := req.Spec
	if err := spec.normalize(); err != nil {
		return nil, err
	}

	// Reserve the slot under quota before the (comparatively slow) target
	// generation, so concurrent submissions cannot overshoot the limits.
	d.mu.Lock()
	if d.draining || d.closed {
		d.mu.Unlock()
		return nil, ErrDraining
	}
	if total := d.activeLocked(""); total >= d.cfg.MaxActive {
		d.mu.Unlock()
		d.telShed.Inc()
		d.reg.Event("shed", fmt.Sprintf("global quota %d", d.cfg.MaxActive))
		return nil, &OverloadError{Scope: "global", Limit: d.cfg.MaxActive, RetryAfter: d.cfg.RetryAfter}
	}
	if n := d.activeLocked(tenant); n >= d.cfg.TenantQuota {
		d.mu.Unlock()
		d.telShed.Inc()
		d.reg.Event("shed", fmt.Sprintf("tenant %s quota %d", tenant, d.cfg.TenantQuota))
		return nil, &OverloadError{Scope: "tenant", Limit: d.cfg.TenantQuota, RetryAfter: d.cfg.RetryAfter}
	}
	id := formatID(d.nextID)
	d.nextID++
	c := &campaign{id: id, tenant: tenant, spec: spec, state: StateQueued, reg: telemetry.New()}
	d.campaigns[id] = c
	d.updateGaugesLocked()
	d.mu.Unlock()

	created := false
	abort := func(err error) (*Info, error) {
		d.mu.Lock()
		delete(d.campaigns, id)
		d.updateGaugesLocked()
		d.mu.Unlock()
		if created {
			// Leave no half-born directory behind: without a meta.json it
			// could never load again, and recovery would log it as skipped
			// on every subsequent start.
			d.store.remove(id)
		}
		return nil, err
	}
	prog, err := spec.buildProgram()
	if err != nil {
		return abort(err)
	}
	runtime, err := spec.newCampaign(prog, c.reg, d.corpusSyncer(c))
	if err != nil {
		return abort(&SpecError{msg: err.Error()})
	}
	if err := d.store.create(id); err != nil {
		return abort(err)
	}
	created = true
	// Round-0 checkpoint before the campaign is runnable: from here on a
	// drain or a crash always has a valid snapshot to fall back to, and a
	// campaign that never ran still pauses cleanly.
	if err := d.store.saveCheckpoint(id, 0, runtime.Snapshot()); err != nil {
		return abort(err)
	}
	c.prog = prog
	c.runtime = runtime

	// Persist the metadata before the campaign becomes runnable: abort (and
	// its directory removal) must never race with a worker that already owns
	// the runtime.
	d.mu.Lock()
	if d.draining || d.closed {
		// Shutdown won the race with materialization: persist as paused so
		// the next daemon offers the campaign for resumption.
		c.state = StatePaused
	}
	m := c.metaLocked()
	d.mu.Unlock()
	if err := d.writeMeta(m); err != nil {
		return abort(err)
	}
	d.mu.Lock()
	if !d.draining && !d.closed && c.state == StateQueued {
		d.enqueueLocked(c)
	} else if !c.state.Terminal() {
		// Shutdown began between the meta write and here; Drain's sweep has
		// already run, so park the campaign ourselves (the round-0
		// checkpoint above makes the paused state complete).
		c.state = StatePaused
	}
	info := c.infoLocked()
	d.mu.Unlock()
	d.telSubmitted.Inc()
	d.reg.Event("submitted", fmt.Sprintf("%s tenant=%s bench=%s rounds=%d", id, tenant, spec.Bench, spec.Rounds))
	return info, nil
}

// corpusSyncer builds the campaign's corpus-service attachment: a
// dist.Client on a service campaign named after the serve campaign ID.
// Returns nil — local-only sync — when no CorpusURL is configured or the
// service cannot be reached; the failure is an event, not an error, because
// corpus sharing is an overlay on a campaign that runs fine without it.
// Materialization after a restart calls this again under the same campaign
// ID and worker names, which resumes the service-side cursors exactly.
func (d *Daemon) corpusSyncer(c *campaign) dist.Syncer {
	if d.cfg.CorpusURL == "" {
		return nil
	}
	client, err := dist.NewClient(d.cfg.CorpusURL, c.id)
	if err != nil {
		c.reg.Event("corpus_unreachable", err.Error())
		return nil
	}
	if err := client.EnsureCampaign(c.spec.MapSize); err != nil {
		c.reg.Event("corpus_unreachable", fmt.Sprintf("%s: %v", d.cfg.CorpusURL, err))
		return nil
	}
	c.reg.Event("corpus_attached", fmt.Sprintf("%s campaign %s", d.cfg.CorpusURL, c.id))
	return client
}

// activeLocked counts non-terminal campaigns, optionally for one tenant.
func (d *Daemon) activeLocked(tenant string) int {
	n := 0
	for _, c := range d.campaigns {
		if c.state.Terminal() {
			continue
		}
		if tenant == "" || c.tenant == tenant {
			n++
		}
	}
	return n
}

// Get returns one campaign's public view.
func (d *Daemon) Get(id string) (*Info, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	c, ok := d.campaigns[id]
	if !ok {
		return nil, ErrNotFound
	}
	return c.infoLocked(), nil
}

// List returns every campaign (optionally one tenant's), sorted by ID.
func (d *Daemon) List(tenant string) []*Info {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*Info, 0, len(d.campaigns))
	for _, c := range d.campaigns {
		if tenant != "" && c.tenant != tenant {
			continue
		}
		out = append(out, c.infoLocked())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Stats returns the latest cached progress snapshot; all zero before the
// first one is taken, so a snapshot never counts rounds without their execs.
func (d *Daemon) Stats(id string) (*CampaignStats, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	c, ok := d.campaigns[id]
	if !ok {
		return nil, ErrNotFound
	}
	if c.stats == nil {
		return &CampaignStats{}, nil
	}
	s := *c.stats
	return &s, nil
}

// Crashes returns the campaign's deduplicated crash buckets as of the last
// boundary snapshot; never nil, so no buckets marshal as [].
func (d *Daemon) Crashes(id string) ([]crash.Record, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	c, ok := d.campaigns[id]
	if !ok {
		return nil, ErrNotFound
	}
	out := make([]crash.Record, len(c.crashes))
	copy(out, c.crashes)
	return out, nil
}

// Events returns the campaign's event ring: new coverage, new crash
// buckets, worker crashes, checkpoints, revivals.
func (d *Daemon) Events(id string) ([]telemetry.Event, error) {
	d.mu.Lock()
	c, ok := d.campaigns[id]
	d.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	evs, _ := c.reg.Events().Snapshot()
	return evs, nil
}

// Registry exposes a campaign's telemetry registry for the
// /campaigns/{id}/metrics mount.
func (d *Daemon) Registry(id string) (*telemetry.Registry, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	c, ok := d.campaigns[id]
	if !ok {
		return nil, ErrNotFound
	}
	return c.reg, nil
}

// Pause requests a pause. Queued campaigns pause immediately; running ones
// at their next round boundary — the call waits for the acknowledgement
// until ctx expires and returns the then-current view either way (the
// caller distinguishes "paused" from "still pausing" by Info.State).
func (d *Daemon) Pause(ctx context.Context, id string) (*Info, error) {
	d.mu.Lock()
	c, ok := d.campaigns[id]
	if !ok {
		d.mu.Unlock()
		return nil, ErrNotFound
	}
	switch c.state {
	case StatePaused:
		defer d.mu.Unlock()
		return c.infoLocked(), nil
	case StateQueued:
		// Flipping the state first makes any queue entry stale, so no
		// worker can pop the campaign once we let go of the lock.
		c.state = StatePaused
		if c.runtime != nil {
			// Parked between quanta with boundary state possibly ahead of
			// the newest checkpoint; we own the runtime now, so park it
			// properly with a last-gasp checkpoint.
			d.mu.Unlock()
			d.pauseNow(c)
			return d.Get(id)
		}
		m := c.metaLocked()
		info := c.infoLocked()
		d.mu.Unlock()
		if err := d.writeMeta(m); err != nil {
			return nil, err
		}
		c.reg.Event("paused", "paused while queued")
		return info, nil
	case StateRunning:
		c.wantPause = true
		d.mu.Unlock()
		// The flag survives a quantum-end requeue, so waiting for the
		// paused state (or a terminal one, if the round budget ran out
		// first) is correct even when the ack spans two quanta.
		return d.await(ctx, c, func(s State) bool { return s == StatePaused || s.Terminal() })
	default:
		defer d.mu.Unlock()
		return nil, fmt.Errorf("%w: cannot pause a %s campaign", ErrConflict, c.state)
	}
}

// Resume moves a paused campaign back into the run queue.
func (d *Daemon) Resume(ctx context.Context, id string) (*Info, error) {
	_ = ctx
	d.mu.Lock()
	c, ok := d.campaigns[id]
	if !ok {
		d.mu.Unlock()
		return nil, ErrNotFound
	}
	switch c.state {
	case StateQueued, StateRunning:
		defer d.mu.Unlock()
		return c.infoLocked(), nil
	case StatePaused:
		if d.draining || d.closed {
			d.mu.Unlock()
			return nil, ErrDraining
		}
		d.enqueueLocked(c)
		m := c.metaLocked()
		info := c.infoLocked()
		d.mu.Unlock()
		if err := d.writeMeta(m); err != nil {
			return nil, err
		}
		c.reg.Event("resumed", fmt.Sprintf("requeued at round %d", info.Rounds))
		return info, nil
	default:
		defer d.mu.Unlock()
		return nil, fmt.Errorf("%w: cannot resume a %s campaign", ErrConflict, c.state)
	}
}

// Cancel terminates a campaign. Running ones stop at their next round
// boundary; the call waits for the acknowledgement until ctx expires.
func (d *Daemon) Cancel(ctx context.Context, id string) (*Info, error) {
	d.mu.Lock()
	c, ok := d.campaigns[id]
	if !ok {
		d.mu.Unlock()
		return nil, ErrNotFound
	}
	switch c.state {
	case StateCancelled:
		defer d.mu.Unlock()
		return c.infoLocked(), nil
	case StateQueued, StatePaused:
		c.state = StateCancelled
		m := c.metaLocked()
		info := c.infoLocked()
		d.updateGaugesLocked()
		d.mu.Unlock()
		if err := d.writeMeta(m); err != nil {
			return nil, err
		}
		c.reg.Event("cancelled", "cancelled before completion")
		return info, nil
	case StateRunning:
		c.wantCancel = true
		d.mu.Unlock()
		return d.await(ctx, c, func(s State) bool { return s.Terminal() })
	default:
		defer d.mu.Unlock()
		return nil, fmt.Errorf("%w: cannot cancel a %s campaign", ErrConflict, c.state)
	}
}

// Kill is the chaos hook (Config.Chaos): the owning worker simulates its
// own crash at the next round boundary, exercising the full recovery path —
// backoff, requeue, resume from the newest checkpoint, circuit breaker.
func (d *Daemon) Kill(id string) (*Info, error) {
	if !d.cfg.Chaos {
		return nil, ErrNotFound
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	c, ok := d.campaigns[id]
	if !ok {
		return nil, ErrNotFound
	}
	if c.state != StateRunning {
		return nil, fmt.Errorf("%w: can only kill a running campaign's worker (state %s)", ErrConflict, c.state)
	}
	c.wantKill = true
	return c.infoLocked(), nil
}

// await polls until done(state) or ctx expires, returning the then-current
// view. The poll period is fine enough that an ack at a round boundary is
// observed promptly without the campaign needing to know who is waiting.
func (d *Daemon) await(ctx context.Context, c *campaign, done func(State) bool) (*Info, error) {
	ticker := time.NewTicker(2 * time.Millisecond)
	defer ticker.Stop()
	for {
		d.mu.Lock()
		s := c.state
		info := c.infoLocked()
		d.mu.Unlock()
		if done(s) {
			return info, nil
		}
		select {
		case <-ctx.Done():
			return info, nil
		case <-ticker.C:
		}
	}
}

// writeMeta persists a metadata document, serialized across writers.
func (d *Daemon) writeMeta(m *meta) error {
	d.iomu.Lock()
	defer d.iomu.Unlock()
	return d.store.saveMeta(m)
}

// updateGaugesLocked refreshes the daemon-level gauges. Caller holds mu.
func (d *Daemon) updateGaugesLocked() {
	depth := 0
	for _, q := range d.queues {
		depth += len(q)
	}
	d.telQueueDepth.Set(int64(depth))
	d.telActive.Set(int64(d.activeLocked("")))
}
