package parallel

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/bigmap/bigmap/internal/dist"
	"github.com/bigmap/bigmap/internal/fuzzer"
	"github.com/bigmap/bigmap/internal/telemetry"
)

// errSyncer fails every call after Join, exercising the degraded mode: sync
// errors must never fail the campaign, only log events.
type errSyncer struct{ dist.Syncer }

func (e errSyncer) Push(string, dist.Batch) (dist.Receipt, error) {
	return dist.Receipt{}, errors.New("corpusd unreachable")
}

func (e errSyncer) Pull(string) ([]dist.Pulled, error) {
	return nil, errors.New("corpusd unreachable")
}

func TestSyncerFailureDegradesGracefully(t *testing.T) {
	prog, seeds := campaignTarget(t)
	hub, err := dist.NewHub(64<<10, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	c, err := NewCampaign(prog, Config{
		Instances: 2,
		SyncEvery: 1000,
		Fuzzer:    fuzzer.Config{Seed: 3, Scheme: fuzzer.SchemeBigMap, Telemetry: reg},
		Syncer:    errSyncer{hub},
	}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunRounds(2); err != nil {
		t.Fatalf("sync failures must not fail the campaign: %v", err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["campaign_sync_errors_total"]; got != 8 {
		// 2 rounds x 2 instances x (push + pull).
		t.Errorf("campaign_sync_errors_total = %d, want 8", got)
	}
	events, _ := reg.Events().Snapshot()
	found := false
	for _, ev := range events {
		if ev.Name == "sync_error" && strings.Contains(ev.Detail, "corpusd unreachable") {
			found = true
		}
	}
	if !found {
		t.Error("no sync_error event logged")
	}
}

// TestSyncerSurvivesRevival pins the soft-state contract: after an instance
// is revived from checkpoint, its rebuilt dist worker resumes the same name
// and sequence chain, and the campaign keeps syncing through the hub.
func TestSyncerSurvivesRevival(t *testing.T) {
	prog, seeds := campaignTarget(t)
	hub, err := dist.NewHub(64<<10, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCampaign(prog, Config{
		Instances:      2,
		SyncEvery:      1000,
		Fuzzer:         fuzzer.Config{Seed: 5, Scheme: fuzzer.SchemeBigMap},
		Syncer:         hub,
		MaxRestarts:    2,
		RestartBackoff: time.Nanosecond,
	}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	c.sleep = func(time.Duration) {}
	fired := false
	c.testFaultHook = func(i int, _ *fuzzer.Fuzzer) {
		if i == 1 && !fired {
			fired = true
			panic("injected fault")
		}
	}
	if err := c.RunRounds(3); err != nil {
		t.Fatal(err)
	}
	if got := c.Report().Restarts; got != 1 {
		t.Fatalf("revivals = %d, want 1", got)
	}
	st, err := hub.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// Still exactly two workers (revival reuses the name) and batches from
	// both sides of the fault.
	if st.Workers != 2 {
		t.Errorf("hub workers = %d, want 2", st.Workers)
	}
	if st.Batches < 6 {
		t.Errorf("hub batches = %d, want >= 6", st.Batches)
	}
	if st.Inputs == 0 {
		t.Error("hub stored no inputs")
	}
}
