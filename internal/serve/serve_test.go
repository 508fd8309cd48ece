package serve

import (
	"context"
	"errors"
	"testing"
	"time"
)

// testSpec is a laptop-sized campaign spec: a real Table II target at tiny
// scale, short sync rounds so tests see many round boundaries quickly.
func testSpec(rounds int) Spec {
	return Spec{
		Bench:      "zlib",
		Scale:      0.02,
		MapSize:    1 << 12,
		Seed:       7,
		SeedCorpus: 4,
		SyncEvery:  200,
		Rounds:     rounds,
	}
}

// testConfig is a small, twitchy daemon: one worker so scheduling is easy to
// reason about, short quanta and cadences so every code path fires fast.
func testConfig(dir string) Config {
	return Config{
		Dir:             dir,
		Workers:         1,
		QuantumRounds:   2,
		CheckpointEvery: 3,
		MaxRestarts:     3,
		RestartBackoff:  time.Millisecond,
		RetryAfter:      time.Second,
		Chaos:           true,
	}
}

func openTest(t *testing.T, cfg Config) *Daemon {
	t.Helper()
	d, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// waitFor polls until pred accepts the campaign's view or the deadline
// passes.
func waitFor(t *testing.T, d *Daemon, id string, what string, pred func(*Info) bool) *Info {
	t.Helper()
	var last *Info
	for i := 0; i < 30000; i++ {
		info, err := d.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if pred(info) {
			return info
		}
		last = info
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("campaign %s never reached %q; last view: %+v", id, what, last)
	return nil
}

func submit(t *testing.T, d *Daemon, tenant string, spec Spec) *Info {
	t.Helper()
	info, err := d.Submit(context.Background(), SubmitRequest{Tenant: tenant, Spec: spec})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return info
}

func TestSubmitValidation(t *testing.T) {
	d := openTest(t, testConfig(t.TempDir()))
	cases := []struct {
		name string
		req  SubmitRequest
	}{
		{"unknown bench", SubmitRequest{Spec: Spec{Bench: "no-such-benchmark", Rounds: 1}}},
		{"zero rounds", SubmitRequest{Spec: Spec{Bench: "zlib"}}},
		{"bad scheme", SubmitRequest{Spec: Spec{Bench: "zlib", Rounds: 1, Scheme: "libfuzzer"}}},
		{"bad tenant", SubmitRequest{Tenant: "no/slashes", Spec: testSpec(1)}},
		{"oversized instances", SubmitRequest{Spec: Spec{Bench: "zlib", Rounds: 1, Instances: maxInstances + 1}}},
	}
	for _, tc := range cases {
		_, err := d.Submit(context.Background(), tc.req)
		var se *SpecError
		if !errors.As(err, &se) {
			t.Errorf("%s: want SpecError, got %v", tc.name, err)
		}
	}
	if got := len(d.List("")); got != 0 {
		t.Fatalf("rejected submissions left %d campaigns behind", got)
	}
}

func TestCampaignRunsToCompletion(t *testing.T) {
	dir := t.TempDir()
	d := openTest(t, testConfig(dir))
	info := submit(t, d, "acme", testSpec(5))
	if info.State != StateQueued && info.State != StateRunning {
		t.Fatalf("fresh campaign in state %s", info.State)
	}
	final := waitFor(t, d, info.ID, "finished", func(i *Info) bool { return i.State == StateFinished })
	if final.Rounds != 5 || final.CheckpointRounds != 5 {
		t.Fatalf("finished at rounds=%d chk=%d, want 5/5", final.Rounds, final.CheckpointRounds)
	}
	if final.Stats == nil || final.Stats.Execs == 0 || final.Stats.Edges == 0 {
		t.Fatalf("finished campaign has empty stats: %+v", final.Stats)
	}

	// The terminal state must be durable: a fresh daemon over the same
	// directory sees the finished campaign without requeueing it.
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	d2 := openTest(t, testConfig(dir))
	again, err := d2.Get(info.ID)
	if err != nil {
		t.Fatalf("Get after reopen: %v", err)
	}
	if again.State != StateFinished {
		t.Fatalf("reopened daemon sees state %s, want finished", again.State)
	}
	if again.Stats == nil || again.Stats.Execs != final.Stats.Execs {
		t.Fatalf("stats not durable: %+v vs %+v", again.Stats, final.Stats)
	}
}

func TestPauseResumeCancel(t *testing.T) {
	d := openTest(t, testConfig(t.TempDir()))
	info := submit(t, d, "acme", testSpec(1<<18))
	waitFor(t, d, info.ID, "progress", func(i *Info) bool { return i.Rounds > 0 })

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	paused, err := d.Pause(ctx, info.ID)
	if err != nil {
		t.Fatalf("Pause: %v", err)
	}
	if paused.State != StatePaused {
		t.Fatalf("after Pause state=%s", paused.State)
	}
	// A pause always leaves the frontier on disk: the checkpoint covers
	// every completed round.
	if paused.CheckpointRounds != paused.Rounds {
		t.Fatalf("paused with rounds=%d but checkpoint at %d", paused.Rounds, paused.CheckpointRounds)
	}
	if _, _, err := d.store.loadCheckpoint(info.ID); err != nil {
		t.Fatalf("paused campaign has no loadable checkpoint: %v", err)
	}

	resumed, err := d.Resume(ctx, info.ID)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if resumed.State != StateQueued && resumed.State != StateRunning {
		t.Fatalf("after Resume state=%s", resumed.State)
	}
	waitFor(t, d, info.ID, "more progress", func(i *Info) bool { return i.Rounds > paused.Rounds })

	cancelled, err := d.Cancel(ctx, info.ID)
	if err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if cancelled.State != StateCancelled {
		t.Fatalf("after Cancel state=%s", cancelled.State)
	}
	// Terminal states reject further transitions.
	if _, err := d.Resume(ctx, info.ID); !errors.Is(err, ErrConflict) {
		t.Fatalf("Resume of cancelled campaign: %v, want ErrConflict", err)
	}
	if _, err := d.Pause(ctx, info.ID); !errors.Is(err, ErrConflict) {
		t.Fatalf("Pause of cancelled campaign: %v, want ErrConflict", err)
	}
}

func TestUnknownCampaign(t *testing.T) {
	d := openTest(t, testConfig(t.TempDir()))
	if _, err := d.Get("c999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get: %v, want ErrNotFound", err)
	}
	ctx := context.Background()
	if _, err := d.Pause(ctx, "nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Pause: %v, want ErrNotFound", err)
	}
}

// TestQuotaShedsWhileRunning is the overload half of the acceptance
// criterion: submissions beyond the quota are shed with a typed overload
// error while already-admitted campaigns keep making progress.
func TestQuotaShedsWhileRunning(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.TenantQuota = 2
	cfg.MaxActive = 3
	d := openTest(t, cfg)

	a1 := submit(t, d, "acme", testSpec(1<<18))
	submit(t, d, "acme", testSpec(1<<18))

	// Third submission for the same tenant: tenant quota exceeded.
	_, err := d.Submit(context.Background(), SubmitRequest{Tenant: "acme", Spec: testSpec(4)})
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Scope != "tenant" || oe.Limit != 2 {
		t.Fatalf("tenant overflow: got %v, want tenant OverloadError limit 2", err)
	}
	if oe.RetryAfter <= 0 {
		t.Fatalf("overload error carries no Retry-After hint: %+v", oe)
	}

	// A different tenant still fits under the global cap...
	submit(t, d, "umbrella", testSpec(1<<18))
	// ...but the next one anywhere trips it.
	_, err = d.Submit(context.Background(), SubmitRequest{Tenant: "wayne", Spec: testSpec(4)})
	if !errors.As(err, &oe) || oe.Scope != "global" || oe.Limit != 3 {
		t.Fatalf("global overflow: got %v, want global OverloadError limit 3", err)
	}

	// The running campaigns are unbothered by the shedding.
	before, err := d.Stats(a1.ID)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	waitFor(t, d, a1.ID, "progress under load", func(i *Info) bool { return i.Rounds > before.Rounds })

	// Retiring a campaign frees its quota slot.
	ctx, cancelCtx := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelCtx()
	if _, err := d.Cancel(ctx, a1.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	waitFor(t, d, a1.ID, "cancelled", func(i *Info) bool { return i.State == StateCancelled })
	if _, err := d.Submit(context.Background(), SubmitRequest{Tenant: "acme", Spec: testSpec(2)}); err != nil {
		t.Fatalf("submit after freeing quota: %v", err)
	}
}

// TestFairShareScheduling drives the queue directly: tenants take turns even
// when one of them has far more queued work.
func TestFairShareScheduling(t *testing.T) {
	d := openTest(t, Config{Dir: t.TempDir(), Workers: 1})
	// Stop the worker from interfering: drain pops nothing because we
	// enqueue below the daemon's nose with the lock held.
	mk := func(id, tenant string) *campaign {
		return &campaign{id: id, tenant: tenant, state: StateQueued}
	}
	a1, a2, a3 := mk("c1", "a"), mk("c2", "a"), mk("c3", "a")
	b1 := mk("c4", "b")
	d.mu.Lock()
	d.enqueueLocked(a1)
	d.enqueueLocked(a2)
	d.enqueueLocked(a3)
	d.enqueueLocked(b1)
	var order []string
	for c := d.popLocked(); c != nil; c = d.popLocked() {
		order = append(order, c.id)
	}
	d.mu.Unlock()
	want := []string{"c1", "c4", "c2", "c3"}
	if len(order) != len(want) {
		t.Fatalf("popped %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("popped %v, want %v (tenant b should interleave)", order, want)
		}
	}
}
