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
// test can tell which metrics instance i runs and when they were rebuilt.
// An instance builds one metric for its executor and, on its first havoc
// stage, a second for the havoc helper's recorder; the probes count what
// the metrics built in a span of the campaign ran, not which one is last.
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

// mark is how many metrics each factory has built so far.
func (p *metricProbes) mark() [3]int {
	var n [3]int
	for i, ms := range p.built {
		n[i] = len(ms)
	}
	return n
}

// runs sums the executions (Begin calls) of the metrics factory i built
// from its from-th on.
func (p *metricProbes) runs(i, from int) int64 {
	var n int64
	for _, m := range p.built[i][from:] {
		n += m.begins.Load()
	}
	return n
}

// checkBuilt asserts every metric factory i built is of its own kind, and
// that it built want[i] since mark (want -1: at least one).
func (p *metricProbes) checkBuilt(t *testing.T, from, want [3]int) {
	t.Helper()
	for i, ms := range p.built {
		n := len(ms) - from[i]
		if want[i] < 0 && n == 0 || want[i] >= 0 && n != want[i] {
			t.Fatalf("Metrics[%d] built %d metrics, want %d (-1: at least one)", i, n, want[i])
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
	p.checkBuilt(t, [3]int{}, [3]int{1, 1, 1})
	var before [3]int64
	for i := range before {
		before[i] = p.runs(i, 0)
		if before[i] == 0 {
			t.Errorf("instance %d dry-ran its seeds without Metrics[%d]", i, i)
		}
	}
	if err := c.RunRounds(1); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if p.runs(i, 0) <= before[i] {
			t.Errorf("instance %d fuzzed without Metrics[%d]", i, i)
		}
	}
}

// TestCampaignRevivalKeepsInstanceMetric: an instance revived after a panic
// runs fresh Metrics[i] metrics, the dead instance's metrics run nothing
// more, and no other factory builds a metric for the revival.
func TestCampaignRevivalKeepsInstanceMetric(t *testing.T) {
	prog, seeds := campaignTarget(t)
	var p metricProbes
	c, err := NewCampaign(prog, ensembleConfig(&p, 23), seeds)
	if err != nil {
		t.Fatal(err)
	}
	c.sleep = func(time.Duration) {}
	// Instance 1's goroutine is the only one building Metrics[1] metrics
	// while the round runs, so the hook may read p.built[1].
	var deadBuilt int
	var deadRuns int64
	panicked := false
	c.testFaultHook = func(i int, _ *fuzzer.Fuzzer) {
		if i == 1 && !panicked {
			panicked = true
			deadBuilt = len(p.built[1])
			deadRuns = p.runs(1, 0)
			panic("injected fault")
		}
	}
	if err := c.RunRounds(1); err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Fatal("the fault hook never ran")
	}
	// Round 1 ended in the revival; instances 0 and 2 have had havoc
	// stages, so every metric built in round 2 is the revived instance's.
	revived := p.mark()
	if revived[1] == deadBuilt {
		t.Fatal("the revival built no Metrics[1] metric")
	}
	if err := c.RunRounds(1); err != nil {
		t.Fatal(err)
	}
	if got := c.Report().Restarts; got != 1 {
		t.Fatalf("restarts = %d, want 1", got)
	}
	p.checkBuilt(t, revived, [3]int{0, -1, 0})
	if got := p.runs(1, 0) - p.runs(1, deadBuilt); got != deadRuns {
		t.Errorf("dead instance's metrics ran %d more execs", got-deadRuns)
	}
	if p.runs(1, deadBuilt) == 0 {
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
	pb.checkBuilt(t, [3]int{}, [3]int{1, 1, 1})
	if got := checkpoint.EncodeCampaign(b.Snapshot()); !bytes.Equal(got, data) {
		t.Error("ensemble right after Resume does not encode to its checkpoint's bytes")
	}
	if err := b.RunRounds(2); err != nil {
		t.Fatal(err)
	}
	for i := range pb.built {
		if pb.runs(i, 0) == 0 {
			t.Errorf("resumed instance %d fuzzed without Metrics[%d]", i, i)
		}
	}
	if got, want := fingerprint(b), fingerprint(ref); !reflect.DeepEqual(got, want) {
		t.Errorf("resumed ensemble diverged:\n got %+v\nwant %+v", got, want)
	}
}
