package parallel

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/bigmap/bigmap/internal/fuzzer"
	"github.com/bigmap/bigmap/internal/telemetry"
)

// TestProgressConcurrentWithRun hammers the campaign registry's Snapshot
// from several goroutines while the campaign runs. Under `go test -race`
// this is the proof that the campaign's live counters (progressState) are
// safe to read mid-round: instance goroutines publish through atomic
// handles, readers never touch the fuzzers.
func TestProgressConcurrentWithRun(t *testing.T) {
	prog, seeds := campaignTarget(t)
	reg := telemetry.New()
	c, err := NewCampaign(prog, Config{
		Instances: 3,
		SyncEvery: 1000,
		Fuzzer:    fuzzer.Config{Seed: 9, Scheme: fuzzer.SchemeBigMap, Telemetry: reg},
	}, seeds)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := make([]int64, 3)
			for {
				select {
				case <-done:
					return
				default:
				}
				s := reg.Snapshot()
				for i := range last {
					n, ok := s.Gauges[fmt.Sprintf("campaign_instance_%d_execs", i)]
					if !ok || n < last[i] {
						t.Errorf("instance %d execs gauge = %d (present %v), earlier read %d", i, n, ok, last[i])
						return
					}
					last[i] = n
				}
			}
		}()
	}

	if err := c.RunExecs(5000); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()

	s := reg.Snapshot()
	if s.Counters["campaign_rounds_total"] == 0 {
		t.Error("campaign_rounds_total = 0 after RunExecs, want > 0")
	}
	rep := c.Report()
	for i, st := range rep.PerInstance {
		if got := s.Gauges[fmt.Sprintf("campaign_instance_%d_execs", i)]; got != int64(st.Execs) || got < 5000 {
			t.Errorf("instance %d execs gauge = %d, Report says %d, want both >= 5000", i, got, st.Execs)
		}
	}
	if rev, failed := s.Counters["campaign_revivals_total"], s.Counters["campaign_failed_instances_total"]; rev != 0 || failed != 0 {
		t.Errorf("healthy campaign counts revivals=%d failed=%d, want 0/0", rev, failed)
	}
	if rep.Restarts != 0 || rep.FailedInstances != 0 {
		t.Errorf("healthy campaign reports Restarts=%d FailedInstances=%d, want 0/0", rep.Restarts, rep.FailedInstances)
	}
}

// TestSingleInstanceExecsGauge pins the round's own exec publish: a
// one-instance campaign without a Syncer has no sync boundary, so the end
// of each round is the only place its campaign_instance_0_execs gauge is
// set.
func TestSingleInstanceExecsGauge(t *testing.T) {
	prog, seeds := campaignTarget(t)
	reg := telemetry.New()
	c, err := NewCampaign(prog, Config{
		Instances: 1,
		SyncEvery: 1000,
		Fuzzer:    fuzzer.Config{Seed: 9, Scheme: fuzzer.SchemeBigMap, Telemetry: reg},
	}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunRounds(2); err != nil {
		t.Fatal(err)
	}
	want := c.Report().PerInstance[0].Execs
	if got := reg.Snapshot().Gauges["campaign_instance_0_execs"]; got != int64(want) || want < 2000 {
		t.Fatalf("instance 0 execs gauge = %d, Report says %d, want both >= 2000", got, want)
	}
}

// TestProgressCountsRevivalsAndFailures checks the supervisor paths publish
// into the registry's campaign counters, in agreement with Report.
func TestProgressCountsRevivalsAndFailures(t *testing.T) {
	prog, seeds := campaignTarget(t)
	reg := telemetry.New()
	c, err := NewCampaign(prog, Config{
		Instances:   2,
		SyncEvery:   500,
		MaxRestarts: 2,
		Fuzzer:      fuzzer.Config{Seed: 3, Scheme: fuzzer.SchemeBigMap, Telemetry: reg},
	}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	c.sleep = func(d time.Duration) {}
	// Instance 1 panics on every round: two revivals, then abandonment.
	c.testFaultHook = func(instance int, f *fuzzer.Fuzzer) {
		if instance == 1 {
			panic("injected fault")
		}
	}
	if err := c.RunRounds(4); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if got := s.Counters["campaign_revivals_total"]; got != 2 {
		t.Errorf("campaign_revivals_total = %d, want 2", got)
	}
	if got := s.Counters["campaign_failed_instances_total"]; got != 1 {
		t.Errorf("campaign_failed_instances_total = %d, want 1", got)
	}
	if got := s.Counters["campaign_rounds_total"]; got != 4 {
		t.Errorf("campaign_rounds_total = %d, want 4", got)
	}
	if rep := c.Report(); rep.Restarts != 2 || rep.FailedInstances != 1 {
		t.Errorf("Report: Restarts=%d FailedInstances=%d, want 2/1", rep.Restarts, rep.FailedInstances)
	}
}
