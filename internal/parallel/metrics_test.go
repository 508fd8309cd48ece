package parallel

import (
	"bytes"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bigmap/bigmap/internal/checkpoint"
	"github.com/bigmap/bigmap/internal/core"
	"github.com/bigmap/bigmap/internal/fuzzer"
)

// probeMetric wraps a real metric and counts its executions (Begin calls).
type probeMetric struct {
	core.Metric
	begins atomic.Int64
}

func (m *probeMetric) Begin() {
	m.begins.Add(1)
	m.Metric.Begin()
}

// metricProbes hands out the ensemble trio (edge, 3-gram, context) as
// per-instance factories and records every metric each factory builds, so a
// test can tell which metric instance i runs and when it was rebuilt.
type metricProbes struct {
	built [3][]*probeMetric
}

var probeNames = [3]string{"edge", "ngram3", "ctx-edge"}

func (p *metricProbes) factories() []fuzzer.MetricFactory {
	inner := []fuzzer.MetricFactory{
		func(size int) (core.Metric, error) { return core.NewEdgeMetric(size) },
		func(size int) (core.Metric, error) { return core.NewNGramMetric(size, 3) },
		func(size int) (core.Metric, error) { return core.NewContextMetric(size) },
	}
	out := make([]fuzzer.MetricFactory, len(inner))
	for i, mk := range inner {
		out[i] = func(size int) (core.Metric, error) {
			m, err := mk(size)
			if err != nil {
				return nil, err
			}
			pm := &probeMetric{Metric: m}
			p.built[i] = append(p.built[i], pm)
			return pm, nil
		}
	}
	return out
}

// live is the metric factory i built most recently: the one instance i runs.
func (p *metricProbes) live(i int) *probeMetric { return p.built[i][len(p.built[i])-1] }

// checkBuilt asserts factory i has built want[i] metrics, all of its own kind.
func (p *metricProbes) checkBuilt(t *testing.T, want [3]int) {
	t.Helper()
	for i, ms := range p.built {
		if len(ms) != want[i] {
			t.Fatalf("Metrics[%d] built %d metrics, want %d", i, len(ms), want[i])
		}
		for _, m := range ms {
			if m.Name() != probeNames[i] {
				t.Errorf("Metrics[%d] built %q, want %q", i, m.Name(), probeNames[i])
			}
		}
	}
}

func ensembleConfig(p *metricProbes, seed uint64) Config {
	return Config{
		Instances: 3,
		SyncEvery: 1000,
		Metrics:   p.factories(),
		Fuzzer:    fuzzer.Config{Seed: seed, Scheme: fuzzer.SchemeBigMap},
	}
}

// TestCampaignPerInstanceMetrics: instance i is built with, and executes
// through, Metrics[i].
func TestCampaignPerInstanceMetrics(t *testing.T) {
	prog, seeds := campaignTarget(t)
	var p metricProbes
	c, err := NewCampaign(prog, ensembleConfig(&p, 21), seeds)
	if err != nil {
		t.Fatal(err)
	}
	p.checkBuilt(t, [3]int{1, 1, 1})
	var before [3]int64
	for i := range before {
		before[i] = p.live(i).begins.Load()
		if before[i] == 0 {
			t.Errorf("instance %d dry-ran its seeds without Metrics[%d]", i, i)
		}
	}
	if err := c.RunRounds(1); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if p.live(i).begins.Load() <= before[i] {
			t.Errorf("instance %d fuzzed without Metrics[%d]", i, i)
		}
	}
}

// TestCampaignRevivalKeepsInstanceMetric: an instance revived after a panic
// runs a fresh Metrics[i], and the dead instance's metric runs nothing more.
func TestCampaignRevivalKeepsInstanceMetric(t *testing.T) {
	prog, seeds := campaignTarget(t)
	var p metricProbes
	c, err := NewCampaign(prog, ensembleConfig(&p, 23), seeds)
	if err != nil {
		t.Fatal(err)
	}
	c.sleep = func(time.Duration) {}
	var deadBegins int64
	panicked := false
	c.testFaultHook = func(i int, _ *fuzzer.Fuzzer) {
		if i == 1 && !panicked {
			panicked = true
			deadBegins = p.live(1).begins.Load()
			panic("injected fault")
		}
	}
	if err := c.RunRounds(2); err != nil {
		t.Fatal(err)
	}
	if got := c.Report().Restarts; got != 1 {
		t.Fatalf("restarts = %d, want 1", got)
	}
	p.checkBuilt(t, [3]int{1, 2, 1})
	if got := p.built[1][0].begins.Load(); got != deadBegins {
		t.Errorf("dead instance's metric ran %d more execs", got-deadBegins)
	}
	if p.live(1).begins.Load() == 0 {
		t.Error("revived instance 1 fuzzed without Metrics[1]")
	}
}

// TestCampaignResumeKeepsInstanceMetrics: a resumed ensemble rebuilds every
// instance with its own metric, is still exactly its checkpoint, and
// continues the uninterrupted campaign bit for bit.
func TestCampaignResumeKeepsInstanceMetrics(t *testing.T) {
	prog, seeds := campaignTarget(t)
	var pref, pa, pb metricProbes
	ref, err := NewCampaign(prog, ensembleConfig(&pref, 24), seeds)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.RunRounds(4); err != nil {
		t.Fatal(err)
	}

	a, err := NewCampaign(prog, ensembleConfig(&pa, 24), seeds)
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
	b, err := Resume(prog, ensembleConfig(&pb, 24), st)
	if err != nil {
		t.Fatal(err)
	}
	pb.checkBuilt(t, [3]int{1, 1, 1})
	if got := checkpoint.EncodeCampaign(b.Snapshot()); !bytes.Equal(got, data) {
		t.Error("ensemble right after Resume does not encode to its checkpoint's bytes")
	}
	if err := b.RunRounds(2); err != nil {
		t.Fatal(err)
	}
	for i := range pb.built {
		if pb.live(i).begins.Load() == 0 {
			t.Errorf("resumed instance %d fuzzed without Metrics[%d]", i, i)
		}
	}
	if got, want := fingerprint(b), fingerprint(ref); !reflect.DeepEqual(got, want) {
		t.Errorf("resumed ensemble diverged:\n got %+v\nwant %+v", got, want)
	}
}
