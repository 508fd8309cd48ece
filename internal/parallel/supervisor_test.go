package parallel

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/bigmap/bigmap/internal/checkpoint"
	"github.com/bigmap/bigmap/internal/fuzzer"
	"github.com/bigmap/bigmap/internal/target"
)

// quietCampaign builds a campaign with the sleep hook stubbed out so backoff
// is recorded, not waited for.
func quietCampaign(t *testing.T, cfg Config) (*Campaign, *[]time.Duration) {
	t.Helper()
	prog, seeds := campaignTarget(t)
	c, err := NewCampaign(prog, cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	var slept []time.Duration
	c.sleep = func(d time.Duration) { slept = append(slept, d) }
	return c, &slept
}

// TestCampaignSurvivesPanics: a 4-instance campaign in which three instances
// panic mid-round must revive all three from their sync-boundary checkpoints
// and run to completion with no instance abandoned and no corpus loss.
func TestCampaignSurvivesPanics(t *testing.T) {
	c, slept := quietCampaign(t, Config{
		Instances: 4,
		SyncEvery: 1000,
		Fuzzer:    fuzzer.Config{Seed: 7, Scheme: fuzzer.SchemeBigMap},
	})
	before := make([]int, 4)
	for i, f := range c.Instances() {
		before[i] = f.Queue().Len()
	}
	var panicked [4]bool
	c.testFaultHook = func(i int, f *fuzzer.Fuzzer) {
		if i != 0 && !panicked[i] {
			panicked[i] = true
			panic("injected fault")
		}
	}
	if err := c.RunExecs(3000); err != nil {
		t.Fatal(err)
	}
	rep := c.Report()
	if rep.Restarts < 3 {
		t.Errorf("restarts = %d, want >= 3 (one per injected panic)", rep.Restarts)
	}
	if rep.FailedInstances != 0 {
		t.Fatalf("%d instances abandoned: %v", rep.FailedInstances, rep.Failures)
	}
	if len(*slept) < 3 {
		t.Errorf("backoff slept %d times, want >= 3", len(*slept))
	}
	for i, f := range c.Instances() {
		if got := f.Execs(); got < 3000 {
			t.Errorf("instance %d execs = %d, want >= 3000", i, got)
		}
		if got := f.Queue().Len(); got < before[i] {
			t.Errorf("instance %d queue shrank %d -> %d: corpus lost in revival", i, before[i], got)
		}
	}
}

// TestCampaignMarksInstanceFailed: an instance that keeps dying burns its
// restart budget and is abandoned — with its errors aggregated — while the
// rest of the campaign completes normally.
func TestCampaignMarksInstanceFailed(t *testing.T) {
	c, _ := quietCampaign(t, Config{
		Instances:   3,
		SyncEvery:   500,
		MaxRestarts: 2,
		Fuzzer:      fuzzer.Config{Seed: 8},
	})
	c.testFaultHook = func(i int, f *fuzzer.Fuzzer) {
		if i == 1 {
			panic("hopeless instance")
		}
	}
	if err := c.RunExecs(2500); err != nil {
		t.Fatal(err)
	}
	rep := c.Report()
	if rep.FailedInstances != 1 {
		t.Fatalf("FailedInstances = %d, want 1", rep.FailedInstances)
	}
	if rep.Restarts != 2 {
		t.Errorf("Restarts = %d, want exactly MaxRestarts", rep.Restarts)
	}
	if len(rep.Failures) != 1 {
		t.Fatalf("Failures = %v, want exactly one record", rep.Failures)
	}
	fail := rep.Failures[0]
	if fail.Instance != 1 || fail.Restarts != 2 {
		t.Errorf("Failures[0] = {instance %d, restarts %d}, want {1, 2}", fail.Instance, fail.Restarts)
	}
	if fail.Err == nil || !strings.Contains(fail.Err.Error(), "hopeless") {
		t.Errorf("Failures[0].Err = %v, want the panic cause", fail.Err)
	}
	for _, i := range []int{0, 2} {
		if got := c.Instances()[i].Execs(); got < 2500 {
			t.Errorf("surviving instance %d execs = %d, want >= 2500", i, got)
		}
	}
}

// TestCampaignAllFailed: when every instance is out of restarts the campaign
// itself errors instead of spinning forever.
func TestCampaignAllFailed(t *testing.T) {
	c, _ := quietCampaign(t, Config{
		Instances:   2,
		SyncEvery:   500,
		MaxRestarts: 1,
		Fuzzer:      fuzzer.Config{Seed: 9},
	})
	c.testFaultHook = func(i int, f *fuzzer.Fuzzer) { panic("total loss") }
	err := c.RunExecs(2000)
	if err == nil || !strings.Contains(err.Error(), "all instances failed") {
		t.Fatalf("err = %v, want all-instances-failed", err)
	}
}

// TestCampaignBackoffExponential: revival delays double per restart of the
// same instance, each padded with jitter in [0, base/2] so synchronized
// faults cannot stampede revivals in lockstep.
func TestCampaignBackoffExponential(t *testing.T) {
	c, slept := quietCampaign(t, Config{
		Instances:      2,
		SyncEvery:      500,
		MaxRestarts:    3,
		RestartBackoff: 8 * time.Millisecond,
		Fuzzer:         fuzzer.Config{Seed: 10},
	})
	fails := 0
	c.testFaultHook = func(i int, f *fuzzer.Fuzzer) {
		if i == 1 && fails < 3 {
			fails++
			panic("flaky instance")
		}
	}
	if err := c.RunExecs(3000); err != nil {
		t.Fatal(err)
	}
	bases := []time.Duration{8 * time.Millisecond, 16 * time.Millisecond, 32 * time.Millisecond}
	if len(*slept) != len(bases) {
		t.Fatalf("backoff sequence %v, want %d delays", *slept, len(bases))
	}
	for i, base := range bases {
		got := (*slept)[i]
		if got < base || got > base+base/2 {
			t.Errorf("backoff[%d] = %v, want in [%v, %v] (base + jitter)", i, got, base, base+base/2)
		}
	}
}

// TestCampaignBackoffJitterDeterministic: the jitter stream is seeded from
// the campaign seed, so an identically-configured campaign replays the exact
// same revival delays — supervision is as reproducible as fuzzing.
func TestCampaignBackoffJitterDeterministic(t *testing.T) {
	run := func() []time.Duration {
		c, slept := quietCampaign(t, Config{
			Instances:      2,
			SyncEvery:      500,
			MaxRestarts:    3,
			RestartBackoff: 8 * time.Millisecond,
			Fuzzer:         fuzzer.Config{Seed: 10},
		})
		fails := 0
		c.testFaultHook = func(i int, f *fuzzer.Fuzzer) {
			if i == 1 && fails < 3 {
				fails++
				panic("flaky instance")
			}
		}
		if err := c.RunExecs(3000); err != nil {
			t.Fatal(err)
		}
		return *slept
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("jitter not deterministic: %v vs %v", a, b)
	}
	jittered := false
	for i, d := range a {
		if d != 8*time.Millisecond<<i {
			jittered = true
		}
	}
	if !jittered {
		t.Log("note: every jitter draw was zero for this seed (legal but unusual)")
	}
}

// TestCampaignMidRoundErrorRevives: a plain error return (not a panic) from
// an instance's round takes the same revival path, replacing the fuzzer with
// one resumed from the last boundary.
func TestCampaignMidRoundErrorRevives(t *testing.T) {
	c, slept := quietCampaign(t, Config{
		Instances: 2,
		SyncEvery: 500,
		Fuzzer:    fuzzer.Config{Seed: 11},
	})
	broken := c.Instances()[1]
	err := c.round(func(f *fuzzer.Fuzzer) error {
		if f == broken {
			return errors.New("exec backend hiccup")
		}
		return f.RunExecs(100)
	})
	if err != nil {
		t.Fatalf("round error = %v, want revival instead", err)
	}
	if c.restarts[1] != 1 || c.failed[1] != nil {
		t.Errorf("restarts[1] = %d failed[1] = %v, want one clean revival", c.restarts[1], c.failed[1])
	}
	if c.Instances()[1] == broken {
		t.Error("errored fuzzer not replaced by resumed one")
	}
	if len(*slept) != 1 {
		t.Errorf("slept %d times, want 1", len(*slept))
	}
}

// TestCampaignConstructionErrors covers the instance-construction failure
// paths: a nil program fails instance 0, and a seed set every instance
// rejects fails with ErrNoSeeds.
func TestCampaignConstructionErrors(t *testing.T) {
	prog, seeds := campaignTarget(t)
	if _, err := NewCampaign(nil, Config{Instances: 2}, seeds); err == nil ||
		!strings.Contains(err.Error(), "instance 0") {
		t.Errorf("nil program: err = %v, want instance 0 failure", err)
	}
	if _, err := NewCampaign(prog, Config{Instances: 2}, nil); !errors.Is(err, fuzzer.ErrNoSeeds) {
		t.Errorf("empty seed set: err = %v, want ErrNoSeeds", err)
	}
}

// campaignPrint is a campaign's per-instance stats and queue path hashes.
type campaignPrint struct {
	Stats  []fuzzer.Stats
	Queues [][]uint64
}

func fingerprint(c *Campaign) campaignPrint {
	var p campaignPrint
	for _, f := range c.Instances() {
		p.Stats = append(p.Stats, f.Stats())
		var hashes []uint64
		for _, e := range f.Queue().Entries() {
			hashes = append(hashes, e.PathHash)
		}
		p.Queues = append(p.Queues, hashes)
	}
	return p
}

// TestCampaignResumeMatchesUninterrupted: a campaign checkpointed between
// Run calls and resumed through the full campaign codec must reproduce the
// uninterrupted campaign exactly — per-instance stats, coverage, queues —
// including master/secondary deterministic-stage forcing and fault-injected
// targets.
func TestCampaignResumeMatchesUninterrupted(t *testing.T) {
	prog, seeds := campaignTarget(t)
	cfg := Config{
		Instances:           3,
		SyncEvery:           1000,
		MasterDeterministic: true,
		Fuzzer: fuzzer.Config{
			Seed: 12, Scheme: fuzzer.SchemeBigMap, AdaptiveHavoc: true,
			CalibrationRuns: 3, HavocRounds: 64, SpliceRounds: 8,
			Faults: &target.FaultProfile{Seed: 6, FlakyEdgeFraction: 100, DropRate: 250},
		},
	}
	ref, err := NewCampaign(prog, cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.RunRounds(4); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(ref)

	a, err := NewCampaign(prog, cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.RunRounds(2); err != nil {
		t.Fatal(err)
	}
	data := checkpoint.EncodeCampaign(a.Snapshot())
	st, err := checkpoint.DecodeCampaign(data)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Resume(prog, cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuilding the private hub executes nothing: the resumed campaign is
	// still exactly its checkpoint.
	if got := checkpoint.EncodeCampaign(b.Snapshot()); !bytes.Equal(got, data) {
		t.Error("campaign right after Resume does not encode to its checkpoint's bytes")
	}
	if err := b.RunRounds(2); err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(b); !reflect.DeepEqual(got, want) {
		t.Errorf("resumed campaign diverged:\n got %+v\nwant %+v", got, want)
	}
	if got, want := b.Report().UnionEdges, ref.Report().UnionEdges; got != want || got == 0 {
		t.Errorf("resumed UnionEdges = %d, uninterrupted %d", got, want)
	}

	// Master forcing survives resume: deterministic stages on instance 0
	// and only instance 0.
	if !b.instanceCfg(0).RunDeterministic {
		t.Error("resumed master lost deterministic stages")
	}
	if b.instanceCfg(1).RunDeterministic {
		t.Error("resumed secondary gained deterministic stages")
	}
}

// TestCampaignResumeValidates: structural mismatches are rejected.
func TestCampaignResumeValidates(t *testing.T) {
	prog, seeds := campaignTarget(t)
	c, err := NewCampaign(prog, Config{Instances: 2, Fuzzer: fuzzer.Config{Seed: 13}}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Snapshot()
	if _, err := Resume(prog, Config{Instances: 5}, st); err == nil {
		t.Error("instance count mismatch accepted")
	}
	if _, err := Resume(prog, Config{Metrics: make([]fuzzer.MetricFactory, 3)}, st); !errors.Is(err, ErrMetricCount) {
		t.Errorf("metric count mismatch: err = %v, want ErrMetricCount", err)
	}
	if _, err := Resume(prog, Config{}, &checkpoint.CampaignState{}); !errors.Is(err, ErrNoInstances) {
		t.Errorf("empty checkpoint: err = %v, want ErrNoInstances", err)
	}
}
