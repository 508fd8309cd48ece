package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/bigmap/bigmap/internal/checkpoint"
)

// finalCheckpoint reads the raw bytes of the checkpoint covering the given
// round count.
func finalCheckpoint(t *testing.T, dir, id string, rounds int) []byte {
	t.Helper()
	path := filepath.Join(dir, "campaigns", id, fmt.Sprintf("chk-%08d.bm", rounds))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read final checkpoint: %v", err)
	}
	return data
}

// runToCompletion submits spec on a fresh daemon over dir and returns the
// finished view.
func runToCompletion(t *testing.T, cfg Config, spec Spec) (*Info, *Daemon) {
	t.Helper()
	d := openTest(t, cfg)
	info := submit(t, d, "acme", spec)
	final := waitFor(t, d, info.ID, "finished", func(i *Info) bool { return i.State == StateFinished })
	return final, d
}

// TestWorkerCrashDifferential is the acceptance criterion: a campaign whose
// worker is killed mid-run and auto-resumed from its last checkpoint must
// produce a final checkpoint bitwise identical to an uninterrupted run of
// the same spec. The split-invariance of sync rounds plus checkpoint/resume
// bitwise-equality make the lost rounds re-run reproduce exactly the state
// the crash destroyed.
func TestWorkerCrashDifferential(t *testing.T) {
	spec := testSpec(10)

	// Control: uninterrupted run.
	dirA := t.TempDir()
	controlInfo, _ := runToCompletion(t, testConfig(dirA), spec)
	want := finalCheckpoint(t, dirA, controlInfo.ID, spec.Rounds)

	// Treatment: same spec, worker chaos-killed mid-campaign.
	dirB := t.TempDir()
	d := openTest(t, testConfig(dirB))
	info := submit(t, d, "acme", spec)
	waitFor(t, d, info.ID, "running", func(i *Info) bool { return i.State == StateRunning && i.Rounds > 0 })
	if _, err := d.Kill(info.ID); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	final := waitFor(t, d, info.ID, "finished after crash", func(i *Info) bool { return i.State == StateFinished })
	if final.Restarts == 0 {
		t.Fatalf("campaign finished without recording the worker crash: %+v", final)
	}
	got := finalCheckpoint(t, dirB, info.ID, spec.Rounds)

	if !bytes.Equal(want, got) {
		t.Fatalf("final checkpoint after crash+recovery differs from uninterrupted run (%d vs %d bytes)", len(want), len(got))
	}
}

// TestDaemonKillRecoveryDifferential kills the whole daemon (hard Close with
// no checkpoint or metadata writes — the in-process kill -9) and proves a
// fresh daemon over the same directory requeues the campaign automatically
// and still converges to the bitwise-identical final checkpoint.
func TestDaemonKillRecoveryDifferential(t *testing.T) {
	spec := testSpec(10)

	dirA := t.TempDir()
	controlInfo, _ := runToCompletion(t, testConfig(dirA), spec)
	want := finalCheckpoint(t, dirA, controlInfo.ID, spec.Rounds)

	dirB := t.TempDir()
	d := openTest(t, testConfig(dirB))
	info := submit(t, d, "acme", spec)
	// Let it make some progress (and likely write a cadence checkpoint),
	// then yank the power cord.
	waitFor(t, d, info.ID, "progress", func(i *Info) bool { return i.Rounds > 0 })
	if err := d.Close(); err != nil {
		t.Fatalf("hard Close: %v", err)
	}

	d2 := openTest(t, testConfig(dirB))
	again, err := d2.Get(info.ID)
	if err != nil {
		t.Fatalf("campaign lost across daemon kill: %v", err)
	}
	if again.State.Terminal() {
		t.Fatalf("campaign already %s right after recovery", again.State)
	}
	final := waitFor(t, d2, info.ID, "finished after daemon kill", func(i *Info) bool { return i.State == StateFinished })
	if final.Rounds != spec.Rounds {
		t.Fatalf("recovered campaign finished at %d rounds, want %d", final.Rounds, spec.Rounds)
	}
	got := finalCheckpoint(t, dirB, info.ID, spec.Rounds)
	if !bytes.Equal(want, got) {
		t.Fatalf("final checkpoint after daemon kill differs from uninterrupted run (%d vs %d bytes)", len(want), len(got))
	}
}

// TestCircuitBreaker crashes a campaign's workers past MaxRestarts and
// expects a durable failed state instead of an infinite retry loop.
func TestCircuitBreaker(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.MaxRestarts = 2
	d := openTest(t, cfg)
	info := submit(t, d, "acme", testSpec(1<<18))
	// Kill the worker every time we catch the campaign running; the kill
	// can race with the campaign's own lifecycle (queued during backoff,
	// already killed), so conflicts are expected — just keep swinging until
	// the breaker trips.
	final := waitFor(t, d, info.ID, "failed", func(i *Info) bool {
		if i.State == StateRunning {
			d.Kill(info.ID)
		}
		return i.State == StateFailed
	})
	if final.Restarts <= cfg.MaxRestarts {
		t.Fatalf("failed after only %d restarts with budget %d", final.Restarts, cfg.MaxRestarts)
	}
	if !strings.Contains(final.Error, "circuit breaker") {
		t.Fatalf("failed campaign error %q does not name the circuit breaker", final.Error)
	}

	// The failure is durable and the breaker state survives restart.
	d.Close()
	d2 := openTest(t, testConfig(cfg.Dir))
	again, err := d2.Get(info.ID)
	if err != nil {
		t.Fatalf("Get after reopen: %v", err)
	}
	if again.State != StateFailed || again.Restarts != final.Restarts {
		t.Fatalf("breaker state not durable: %+v vs %+v", again, final)
	}
}

// TestRecoveryRollsBackUncheckpointedRounds pins the rollback semantics: a
// chaos kill discards rounds past the newest checkpoint, and the public
// view never claims rounds the disk cannot back.
func TestRecoveryRollsBackUncheckpointedRounds(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.CheckpointEvery = 1 << 20 // effectively: only the round-0 checkpoint exists
	cfg.MaxRestarts = 1 << 10
	d := openTest(t, cfg)
	info := submit(t, d, "acme", testSpec(1<<18))
	waitFor(t, d, info.ID, "progress", func(i *Info) bool { return i.Rounds >= 2 })
	if _, err := d.Kill(info.ID); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	waitFor(t, d, info.ID, "restart recorded", func(i *Info) bool { return i.Restarts >= 1 })
	got, err := d.Get(info.ID)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got.Rounds > got.CheckpointRounds && got.State != StateRunning {
		t.Fatalf("view claims %d rounds but checkpoint covers %d in state %s",
			got.Rounds, got.CheckpointRounds, got.State)
	}
}

// TestRecoveryReservesUnloadableIDs pins the ID allocator against stale
// state: a campaign directory that cannot be loaded (no meta.json — a
// half-born submission or a torn disk) must still reserve its numeric ID,
// or the next Submit would re-mint it, adopt the stale directory and
// resume from another campaign's leftover checkpoints.
func TestRecoveryReservesUnloadableIDs(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "campaigns", "c000041")
	if err := os.MkdirAll(stale, 0o755); err != nil {
		t.Fatalf("mkdir stale dir: %v", err)
	}
	// The leftover checkpoint is the dangerous part: an ID collision would
	// hand this state to a fresh campaign.
	if err := os.WriteFile(filepath.Join(stale, "chk-00000007.bm"), []byte("stale"), 0o644); err != nil {
		t.Fatalf("write stale checkpoint: %v", err)
	}

	d := openTest(t, testConfig(dir))
	info := submit(t, d, "acme", testSpec(2))
	if n, ok := parseID(info.ID); !ok || n <= 41 {
		t.Fatalf("Submit minted %s, want an ID past the unloadable c000041", info.ID)
	}
	if info.Rounds != 0 || info.CheckpointRounds != 0 {
		t.Fatalf("fresh campaign inherited rounds from stale state: %+v", info)
	}
	waitFor(t, d, info.ID, "finished", func(i *Info) bool { return i.State == StateFinished })
}

// TestSubmitRefusesExistingDir: store.create must not adopt a directory it
// did not make, and the abort path must not delete state it does not own.
func TestSubmitRefusesExistingDir(t *testing.T) {
	dir := t.TempDir()
	d := openTest(t, testConfig(dir))
	// The daemon will mint c000000 next; squat on it.
	squat := filepath.Join(dir, "campaigns", "c000000")
	if err := os.MkdirAll(squat, 0o755); err != nil {
		t.Fatalf("mkdir squat dir: %v", err)
	}
	marker := filepath.Join(squat, "chk-00000009.bm")
	if err := os.WriteFile(marker, []byte("not yours"), 0o644); err != nil {
		t.Fatalf("write marker: %v", err)
	}

	if _, err := d.Submit(context.Background(), SubmitRequest{Tenant: "acme", Spec: testSpec(1)}); err == nil {
		t.Fatalf("Submit adopted a pre-existing campaign directory")
	}
	if got := len(d.List("")); got != 0 {
		t.Fatalf("failed submission left %d campaigns behind", got)
	}
	if _, err := os.Stat(marker); err != nil {
		t.Fatalf("abort deleted a directory it did not create: %v", err)
	}

	// The allocator has moved past the collision; submissions recover.
	info := submit(t, d, "acme", testSpec(1))
	if info.ID == "c000000" {
		t.Fatalf("allocator re-minted the squatted ID")
	}
}

// TestRecoveryIgnoresCorruptNewestCheckpoint: the recovered round count must
// come from the newest checkpoint that decodes, not the newest filename, so
// the public view never promises rounds that materialization would have to
// walk back.
func TestRecoveryIgnoresCorruptNewestCheckpoint(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(10)
	info, d := runToCompletion(t, testConfig(dir), spec)
	d.Close()

	// Corrupt the newest checkpoint (round 10); its predecessor (round 9,
	// kept by the pruner as insurance) remains valid.
	newest := filepath.Join(dir, "campaigns", info.ID, "chk-00000010.bm")
	if err := os.WriteFile(newest, []byte("garbage"), 0o644); err != nil {
		t.Fatalf("corrupt newest checkpoint: %v", err)
	}

	d2 := openTest(t, testConfig(dir))
	got, err := d2.Get(info.ID)
	if err != nil {
		t.Fatalf("Get after reopen: %v", err)
	}
	if got.Rounds != 9 || got.CheckpointRounds != 9 {
		t.Fatalf("recovered view claims rounds=%d chk=%d, want 9/9 (the newest decodable checkpoint)",
			got.Rounds, got.CheckpointRounds)
	}
}

// TestRecoveryRefusesVersionSkew: checkpoints of another codec version are
// version skew, not corruption. Requeueing such a campaign would fail it
// durably, so Open must refuse, with an error naming the campaign and both
// versions, and leave meta.json untouched for the binary that can resume it.
func TestRecoveryRefusesVersionSkew(t *testing.T) {
	dir := t.TempDir()
	d := openTest(t, testConfig(dir))
	info := submit(t, d, "acme", testSpec(50))
	waitFor(t, d, info.ID, "round 2", func(i *Info) bool { return i.Rounds >= 2 })
	if err := d.Close(); err != nil {
		t.Fatalf("hard Close: %v", err)
	}

	campaignDir := filepath.Join(dir, "campaigns", info.ID)
	chks, err := filepath.Glob(filepath.Join(campaignDir, "chk-*.bm"))
	if err != nil || len(chks) == 0 {
		t.Fatalf("no checkpoints on disk (%v)", err)
	}
	for _, path := range chks {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len("BMCP")] = 4 // the version byte follows the magic
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	metaPath := filepath.Join(campaignDir, "meta.json")
	before, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}

	d2, err := Open(testConfig(dir))
	if err == nil {
		d2.Close()
		t.Fatal("Open accepted checkpoints of another format version")
	}
	want := fmt.Sprintf("got 4, want %d", checkpoint.Version)
	if !errors.Is(err, checkpoint.ErrVersion) || !strings.Contains(err.Error(), info.ID) || !strings.Contains(err.Error(), want) {
		t.Fatalf("Open error %q: want ErrVersion naming %s and %q", err, info.ID, want)
	}
	after, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("refused Open rewrote meta.json:\n before %s\n after %s", before, after)
	}
}

// TestDrainDuringBackoff: draining while a crashed campaign waits out its
// backoff must park it as paused, not lose it.
func TestDrainDuringBackoff(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.RestartBackoff = 30 * time.Second // long enough that drain wins the race
	d := openTest(t, cfg)
	info := submit(t, d, "acme", testSpec(1<<18))
	waitFor(t, d, info.ID, "running", func(i *Info) bool { return i.State == StateRunning })
	if _, err := d.Kill(info.ID); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	waitFor(t, d, info.ID, "in backoff", func(i *Info) bool { return i.State == StateQueued })

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	got, err := d.Get(info.ID)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got.State != StatePaused {
		t.Fatalf("campaign in backoff drained to %s, want paused", got.State)
	}
	m, err := d.store.loadMeta(info.ID)
	if err != nil {
		t.Fatalf("loadMeta: %v", err)
	}
	if m.State != StatePaused {
		t.Fatalf("disk says %s, want paused", m.State)
	}
}
