package corpusd

import (
	"fmt"
	"net/http/httptest"
	"testing"

	"github.com/bigmap/bigmap/internal/dist"
	"github.com/bigmap/bigmap/internal/fuzzer"
	"github.com/bigmap/bigmap/internal/parallel"
	"github.com/bigmap/bigmap/internal/rng"
	"github.com/bigmap/bigmap/internal/target"
)

// TestWireSyncMatchesParallelCampaign is the end-to-end differential the
// distributed layer is pinned by: two fuzzer instances in "separate
// processes" — each built standalone from parallel.InstanceConfig and synced
// only through a corpusd store over real HTTP — must reach the exact same
// campaign-wide union coverage, per-instance queues and crash buckets as the
// in-process parallel campaign running the same round schedule from the same
// seeds. The in-process campaign syncs through its private dist.Hub, and a
// corpusd campaign is a dist.Hub plus a journal, so both sides run one state
// machine and a pull delivers the same peer inputs in the same order on
// both sides, so worker trajectories are identical.
func TestWireSyncMatchesParallelCampaign(t *testing.T) {
	prog, err := target.Generate(target.GenSpec{
		Name:              "wire-diff",
		Seed:              31,
		NumFuncs:          40,
		BlocksPerFunc:     24,
		InputLen:          128,
		BranchFraction:    0.7,
		MagicCompares:     10,
		MagicWidth:        2,
		BonusBlocks:       8,
		GatedCallFraction: 0.3,
		Switches:          6,
		SwitchFanout:      8,
		CrashSites:        2,
		CrashDepth:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	seeds := prog.SampleSeeds(rng.New(58), 4)
	const (
		instances = 2
		rounds    = 3
		size      = 64 << 10
	)
	base := parallel.Config{
		Instances: instances,
		SyncEvery: 3000,
		Fuzzer:    fuzzer.Config{Seed: 11, Scheme: fuzzer.SchemeBigMap},
	}

	// Reference: the in-process campaign, synced through its private hub.
	ref, err := parallel.NewCampaign(prog, base, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.RunRounds(rounds); err != nil {
		t.Fatal(err)
	}
	lrep := ref.Report()
	if lrep.UnionEdges == 0 {
		t.Fatal("in-process campaign discovered no union coverage")
	}

	// Wire side: a persistent store behind real HTTP, one standalone fuzzer
	// plus client per "process".
	s, err := New(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	fuzzers := make([]*fuzzer.Fuzzer, instances)
	workers := make([]*dist.Worker, instances)
	for i := range fuzzers {
		f, err := fuzzer.New(prog, parallel.InstanceConfig(base, i))
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range seeds {
			if err := f.AddSeed(seed); err != nil {
				t.Fatal(err)
			}
		}
		client, err := dist.NewClient(srv.URL, "diff")
		if err != nil {
			t.Fatal(err)
		}
		if err := client.EnsureCampaign(size); err != nil {
			t.Fatal(err)
		}
		w, err := dist.NewWorker(f, fmt.Sprintf("w%d", i), client, size)
		if err != nil {
			t.Fatal(err)
		}
		fuzzers[i], workers[i] = f, w
	}
	for r := 0; r < rounds; r++ {
		for _, f := range fuzzers {
			if err := f.RunExecs(base.SyncEvery); err != nil {
				t.Fatal(err)
			}
		}
		// All pushes land before any pull, as in the campaign's round
		// boundary.
		for _, w := range workers {
			if _, err := w.Push(); err != nil {
				t.Fatal(err)
			}
		}
		for _, w := range workers {
			if _, err := w.Pull(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Publish coverage found by the final pull's imports. Imports only
	// re-find edges a peer already published, so the union does not move.
	for _, w := range workers {
		if _, err := w.Push(); err != nil {
			t.Fatal(err)
		}
	}

	st, err := s.Stats("diff")
	if err != nil {
		t.Fatal(err)
	}
	if st.UnionDiscovered != lrep.UnionEdges {
		t.Errorf("wire union = %d edges, in-process campaign %d", st.UnionDiscovered, lrep.UnionEdges)
	}
	if st.Crashes != lrep.UniqueCrashes {
		t.Errorf("wire crash buckets = %d, in-process campaign %d", st.Crashes, lrep.UniqueCrashes)
	}
	var wireExecs uint64
	for i, f := range fuzzers {
		ls := lrep.PerInstance[i]
		fs := f.Stats()
		wireExecs += fs.Execs
		if fs.Execs > ls.Execs {
			t.Errorf("instance %d execs = %d, want <= in-process %d", i, fs.Execs, ls.Execs)
		}
		fs.Execs, ls.Execs = 0, 0
		if fs != ls {
			t.Errorf("instance %d stats diverge:\n wire       %+v\n in-process %+v", i, fs, ls)
		}
	}

	// Restart the store from disk: the recovered campaign must still hold
	// the full deduplicated corpus and the same union — the no-input-loss
	// half of the acceptance criteria, without a worker in flight.
	srv.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := New(s.Dir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := s2.Stats("diff")
	if err != nil {
		t.Fatal(err)
	}
	if st2 != st {
		t.Errorf("recovered stats = %+v, want %+v", st2, st)
	}
}
