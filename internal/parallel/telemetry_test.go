package parallel

import (
	"fmt"
	"testing"
	"time"

	"github.com/bigmap/bigmap/internal/fuzzer"
	"github.com/bigmap/bigmap/internal/telemetry"
)

// TestCampaignTelemetry runs a small instrumented campaign and checks the
// campaign-level metrics: shared fuzzer counters aggregate across instances,
// round counts match, and every instance publishes its exec gauge.
func TestCampaignTelemetry(t *testing.T) {
	reg := telemetry.New()
	prog, seeds := campaignTarget(t)
	c, err := NewCampaign(prog, Config{
		Instances: 3,
		SyncEvery: 2000,
		Fuzzer:    fuzzer.Config{Seed: 11, Telemetry: reg},
	}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if c.Telemetry() != reg {
		t.Fatal("campaign must expose the configured registry")
	}
	const rounds = 3
	if err := c.RunRounds(rounds); err != nil {
		t.Fatal(err)
	}

	s := reg.Snapshot()
	if got := s.Counters["campaign_rounds_total"]; got != rounds {
		t.Errorf("campaign_rounds_total = %d, want %d", got, rounds)
	}
	if got := s.Gauges["campaign_instances"]; got != 3 {
		t.Errorf("campaign_instances = %d, want 3", got)
	}

	rep := c.Report()
	// All instances share the registry, so the execs counter aggregates the
	// whole campaign (dry runs included).
	if got := s.Counters["fuzzer_execs_total"]; got != rep.TotalExecs {
		t.Errorf("fuzzer_execs_total = %d, report says %d", got, rep.TotalExecs)
	}
	for i := 0; i < 3; i++ {
		g := s.Gauges[fmt.Sprintf("campaign_instance_%d_execs", i)]
		if g != int64(rep.PerInstance[i].Execs) {
			t.Errorf("instance %d gauge = %d, stats say %d", i, g, rep.PerInstance[i].Execs)
		}
	}
}

// TestCampaignTelemetryRevivalEvents checks the supervisor's event-log
// integration: a panicking instance bumps campaign_revivals_total and leaves
// an instance_revived event in the ring.
func TestCampaignTelemetryRevivalEvents(t *testing.T) {
	reg := telemetry.New()
	prog, seeds := campaignTarget(t)
	c, err := NewCampaign(prog, Config{
		Instances:   2,
		SyncEvery:   500,
		MaxRestarts: 2,
		Fuzzer:      fuzzer.Config{Seed: 13, Telemetry: reg},
	}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	c.sleep = func(time.Duration) {}
	faulted := false
	c.testFaultHook = func(instance int, f *fuzzer.Fuzzer) {
		if instance == 1 && !faulted {
			faulted = true
			panic("injected fault")
		}
	}
	if err := c.RunRounds(2); err != nil {
		t.Fatal(err)
	}

	s := reg.Snapshot()
	if got := s.Counters["campaign_revivals_total"]; got != 1 {
		t.Errorf("campaign_revivals_total = %d, want 1", got)
	}
	found := false
	for _, e := range s.Events {
		if e.Name == "instance_revived" {
			found = true
		}
	}
	if !found {
		t.Errorf("no instance_revived event in %+v", s.Events)
	}
}
