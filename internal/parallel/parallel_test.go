package parallel

import (
	"errors"
	"testing"
	"time"

	"github.com/bigmap/bigmap/internal/core"
	"github.com/bigmap/bigmap/internal/dist"
	"github.com/bigmap/bigmap/internal/fuzzer"
	"github.com/bigmap/bigmap/internal/rng"
	"github.com/bigmap/bigmap/internal/target"
)

func campaignTarget(t *testing.T) (*target.Program, [][]byte) {
	t.Helper()
	prog, err := target.Generate(target.GenSpec{
		Name:           "par",
		Seed:           17,
		NumFuncs:       6,
		BlocksPerFunc:  16,
		InputLen:       48,
		BranchFraction: 0.6,
		CrashSites:     3,
		CrashDepth:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return prog, prog.SampleSeeds(rng.New(55), 4)
}

func TestNewCampaignValidates(t *testing.T) {
	prog, seeds := campaignTarget(t)
	if _, err := NewCampaign(prog, Config{Instances: 0}, seeds); !errors.Is(err, ErrNoInstances) {
		t.Errorf("err = %v, want ErrNoInstances", err)
	}
	if _, err := NewCampaign(prog, Config{Instances: 2, Metrics: make([]fuzzer.MetricFactory, 3)}, seeds); !errors.Is(err, ErrMetricCount) {
		t.Errorf("err = %v, want ErrMetricCount", err)
	}
}

func TestCampaignRunsAllInstances(t *testing.T) {
	prog, seeds := campaignTarget(t)
	c, err := NewCampaign(prog, Config{
		Instances: 3,
		SyncEvery: 2000,
		Fuzzer:    fuzzer.Config{Seed: 1, Scheme: fuzzer.SchemeBigMap},
	}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunExecs(4000); err != nil {
		t.Fatal(err)
	}
	rep := c.Report()
	if len(rep.PerInstance) != 3 {
		t.Fatalf("PerInstance = %d", len(rep.PerInstance))
	}
	for i, st := range rep.PerInstance {
		if st.Execs < 4000 {
			t.Errorf("instance %d execs = %d, want >= 4000", i, st.Execs)
		}
	}
	if rep.TotalExecs < 12000 {
		t.Errorf("TotalExecs = %d", rep.TotalExecs)
	}
	if rep.MaxEdges == 0 {
		t.Error("no coverage recorded")
	}
}

func TestCampaignSyncSharesCorpus(t *testing.T) {
	// A larger, partially gated target so two instances explore divergent
	// regions and have something to teach each other; a small sync target
	// converges so fast that every import is redundant.
	prog, err := target.Generate(target.GenSpec{
		Name:              "par-big",
		Seed:              23,
		NumFuncs:          40,
		BlocksPerFunc:     24,
		InputLen:          128,
		BranchFraction:    0.7,
		MagicCompares:     10,
		MagicWidth:        2, // occasionally solvable, so finds differ
		BonusBlocks:       8,
		GatedCallFraction: 0.3,
		Switches:          6,
		SwitchFanout:      8,
	})
	if err != nil {
		t.Fatal(err)
	}
	seeds := prog.SampleSeeds(rng.New(56), 4)
	c, err := NewCampaign(prog, Config{
		Instances: 2,
		SyncEvery: 3000,
		Fuzzer:    fuzzer.Config{Seed: 2, Scheme: fuzzer.SchemeBigMap},
	}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunExecs(9000); err != nil {
		t.Fatal(err)
	}
	// After syncing, instances must have imported peer finds: their queues
	// should contain "sync"-provenance entries (unless one instance found
	// literally nothing new, which this target makes implausible).
	syncs := 0
	for _, f := range c.Instances() {
		for _, e := range f.Queue().Entries() {
			if e.FoundBy == "sync" {
				syncs++
			}
		}
	}
	if syncs == 0 {
		t.Error("no cross-pollinated entries after sync rounds")
	}
	// The exchange ran through the campaign's private hub: one worker per
	// instance, and the hub's union is the campaign's.
	st, err := c.hub.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 2 || st.Inputs == 0 {
		t.Errorf("hub holds %d workers and %d inputs, want 2 workers and some inputs", st.Workers, st.Inputs)
	}
	if rep := c.Report(); st.UnionDiscovered != rep.UnionEdges || rep.UnionEdges < rep.MaxEdges {
		t.Errorf("hub union = %d, campaign union %d, best instance %d", st.UnionDiscovered, rep.UnionEdges, rep.MaxEdges)
	}
}

func TestCampaignSingleInstanceNoSync(t *testing.T) {
	prog, seeds := campaignTarget(t)
	c, err := NewCampaign(prog, Config{
		Instances: 1,
		SyncEvery: 2000,
		Fuzzer:    fuzzer.Config{Seed: 3},
	}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunExecs(2000); err != nil {
		t.Fatal(err)
	}
	if got := c.Report().TotalExecs; got < 2000 {
		t.Errorf("TotalExecs = %d", got)
	}
	if c.hub != nil || c.peers != nil {
		t.Error("a single instance without a syncer built a sync hub")
	}
}

func TestCampaignCrashUnion(t *testing.T) {
	prog, seeds := campaignTarget(t)
	c, err := NewCampaign(prog, Config{
		Instances: 2,
		SyncEvery: 10000,
		Fuzzer:    fuzzer.Config{Seed: 4, Scheme: fuzzer.SchemeBigMap},
	}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunExecs(40000); err != nil {
		t.Fatal(err)
	}
	rep := c.Report()
	best := 0
	for _, st := range rep.PerInstance {
		if st.UniqueCrashes > best {
			best = st.UniqueCrashes
		}
	}
	if rep.UniqueCrashes < best {
		t.Errorf("union %d < best instance %d", rep.UniqueCrashes, best)
	}
}

func TestCampaignMasterRunsDeterministic(t *testing.T) {
	prog, seeds := campaignTarget(t)
	c, err := NewCampaign(prog, Config{
		Instances:           2,
		SyncEvery:           1000,
		MasterDeterministic: true,
		Fuzzer:              fuzzer.Config{Seed: 5, HavocRounds: 4, SpliceRounds: 1},
	}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunExecs(1000); err != nil {
		t.Fatal(err)
	}
	rep := c.Report()
	// The master burns through deterministic stages, so with tiny havoc
	// budgets it executes far more cases per round than the secondary.
	if rep.PerInstance[0].Execs <= rep.PerInstance[1].Execs {
		t.Errorf("master execs %d <= secondary execs %d; deterministic stage not run",
			rep.PerInstance[0].Execs, rep.PerInstance[1].Execs)
	}
}

func TestCampaignRunFor(t *testing.T) {
	prog, seeds := campaignTarget(t)
	c, err := NewCampaign(prog, Config{
		Instances: 2,
		SyncEvery: 100000, // irrelevant: RunFor time-slices rounds
		Fuzzer:    fuzzer.Config{Seed: 6, Scheme: fuzzer.SchemeBigMap},
	}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	counted, err := c.RunFor(700 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed > 3*time.Second {
		t.Errorf("RunFor(700ms) took %v; time slicing broken", elapsed)
	}
	// With no charge the instance clocks are the wall clock, and the
	// count is made of intervals inside the call.
	if counted < 700*time.Millisecond || counted > elapsed {
		t.Errorf("RunFor(700ms) counted %v in %v of wall time", counted, elapsed)
	}
	if got := c.Report().TotalExecs; got == 0 {
		t.Error("RunFor executed nothing")
	}
}

// TestCampaignRunForChargedTime: with an execution charge, RunFor ends once
// the budget has passed on the instance clocks, far sooner in wall time.
// The count is at least any one instance's charge (each round counts the
// largest clock advance) and at most all charges plus the wall time.
func TestCampaignRunForChargedTime(t *testing.T) {
	prog, seeds := campaignTarget(t)
	c, err := NewCampaign(prog, Config{
		Instances: 2,
		SyncEvery: 100000,
		Fuzzer:    fuzzer.Config{Seed: 6, Scheme: fuzzer.SchemeBigMap, ExecCostNs: 100e3},
	}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 30 * time.Second
	before := make([]time.Duration, len(c.Instances()))
	for i, f := range c.Instances() {
		before[i] = f.Charged()
	}
	start := time.Now()
	counted, err := c.RunFor(budget)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if counted < budget {
		t.Fatalf("RunFor(%v) returned after counting %v", budget, counted)
	}
	if elapsed > budget/2 {
		t.Errorf("RunFor(%v) took %v of wall time: the charge did not advance the clocks", budget, elapsed)
	}
	var most, all time.Duration
	for i, f := range c.Instances() {
		charged := f.Charged() - before[i]
		most = max(most, charged)
		all += charged
	}
	if counted < most || counted > all+elapsed {
		t.Errorf("counted %v: want between the largest instance charge %v and all charges plus wall time %v",
			counted, most, all+elapsed)
	}
}

// TestCampaignVirginUnion pins the campaign-level union coverage for both
// map schemes: Report.UnionEdges is the private hub's union, one hub worker
// per instance, and it equals the AND of every instance's own coverage —
// each instance's virgin map routed through the slot translation (BigMap
// instances discover edges in different orders) into a fresh union. A
// campaign syncing through an external hub runs the same exchange and
// reaches the same union.
func TestCampaignVirginUnion(t *testing.T) {
	prog, seeds := campaignTarget(t)
	for _, scheme := range []fuzzer.Scheme{fuzzer.SchemeAFL, fuzzer.SchemeBigMap} {
		run := func(syncer dist.Syncer) *Campaign {
			c, err := NewCampaign(prog, Config{
				Instances: 3,
				SyncEvery: 2000,
				Syncer:    syncer,
				Fuzzer:    fuzzer.Config{Seed: 7, Scheme: scheme},
			}, seeds)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.RunExecs(4000); err != nil {
				t.Fatal(err)
			}
			return c
		}
		c := run(nil)
		rep := c.Report()
		if rep.UnionEdges == 0 {
			t.Fatalf("%s: union recorded no coverage", scheme)
		}
		if rep.UnionEdges < rep.MaxEdges {
			t.Fatalf("%s: union %d < best instance %d", scheme, rep.UnionEdges, rep.MaxEdges)
		}
		st, err := c.hub.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.UnionDiscovered != rep.UnionEdges {
			t.Errorf("%s: hub union = %d, campaign union %d", scheme, st.UnionDiscovered, rep.UnionEdges)
		}
		if st.Workers != 3 {
			t.Errorf("%s: hub workers = %d, want 3", scheme, st.Workers)
		}
		if _, got := rawKeyUnion(core.MapSize64K, c.Instances()...); got != rep.UnionEdges {
			t.Errorf("%s: instances' merged coverage = %d edges, campaign union %d", scheme, got, rep.UnionEdges)
		}

		hub, err := dist.NewHub(core.MapSize64K, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := run(hub).Report().UnionEdges; got != rep.UnionEdges {
			t.Errorf("%s: external-hub union = %d, private-hub union %d", scheme, got, rep.UnionEdges)
		}
	}
}

// rawKeyUnion is the reference campaign union: each instance's clean-run
// virgin bytes ANDed into a map-size byte map by raw coverage key, with
// BigMap dense slots translated through the slot table. It returns the
// union and its discovered-key count.
func rawKeyUnion(size int, fs ...*fuzzer.Fuzzer) ([]byte, int) {
	union := make([]byte, size)
	core.FillVirgin(union)
	for _, f := range fs {
		bm, _ := f.Map().(*core.BigMap)
		for _, w := range f.Snapshot().VirginAll.Words {
			for j := 0; j < 8; j++ {
				key, b := int(w.Index)*8+j, byte(w.Word>>(8*j))
				if b == 0xFF {
					continue
				}
				if bm != nil {
					k, ok := bm.KeyForSlot(key)
					if !ok {
						continue
					}
					key = int(k)
				}
				union[key] &= b
			}
		}
	}
	discovered := 0
	for _, b := range union {
		if b != 0xFF {
			discovered++
		}
	}
	return union, discovered
}
