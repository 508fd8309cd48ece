package bench

import (
	"errors"
	"testing"

	"github.com/bigmap/bigmap/internal/fuzzer"
	"github.com/bigmap/bigmap/internal/parallel"
	"github.com/bigmap/bigmap/internal/rng"
	"github.com/bigmap/bigmap/internal/target"
)

func ensembleTarget(t *testing.T) (*target.Program, [][]byte) {
	t.Helper()
	prog, err := target.Generate(target.GenSpec{
		Name:           "ens",
		Seed:           61,
		NumFuncs:       8,
		BlocksPerFunc:  16,
		InputLen:       64,
		BranchFraction: 0.6,
		Switches:       2,
		SwitchFanout:   4,
		Loops:          2,
		LoopMax:        8,
		CrashSites:     2,
		CrashDepth:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return prog, prog.SampleSeeds(rng.New(62), 4)
}

func TestNewEnsembleValidates(t *testing.T) {
	prog, seeds := ensembleTarget(t)
	if _, err := newEnsemble(prog, seeds, nil, 1000, fuzzer.Config{}); !errors.Is(err, parallel.ErrNoInstances) {
		t.Errorf("err = %v, want ErrNoInstances", err)
	}
}

// TestEnsembleUnionCoverageAtLeastBestMember: the ensemble's exact union
// coverage is at least each member's own exact coverage, measured the same
// way.
func TestEnsembleUnionCoverageAtLeastBestMember(t *testing.T) {
	prog, seeds := ensembleTarget(t)
	ens, err := newEnsemble(prog, seeds, ensembleMembers(), 3000,
		fuzzer.Config{Scheme: fuzzer.SchemeBigMap, MapSize: 1 << 18, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := ens.RunExecs(6000); err != nil {
		t.Fatal(err)
	}
	union := exactEdges(prog, ens.Instances()...)
	if union == 0 {
		t.Fatal("no union coverage")
	}
	for i, f := range ens.Instances() {
		if member := exactEdges(prog, f); union < member {
			t.Errorf("union %d < member %d's %d", union, i, member)
		}
	}
}

func TestEnsembleCrashUnion(t *testing.T) {
	prog, seeds := ensembleTarget(t)
	ens, err := newEnsemble(prog, seeds, ensembleMembers(), 10000,
		fuzzer.Config{Scheme: fuzzer.SchemeBigMap, MapSize: 1 << 18, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := ens.RunExecs(30000); err != nil {
		t.Fatal(err)
	}
	rep := ens.Report()
	if len(rep.PerInstance) != 3 {
		t.Fatalf("members = %d", len(rep.PerInstance))
	}
	best := 0
	for _, st := range rep.PerInstance {
		if st.UniqueCrashes > best {
			best = st.UniqueCrashes
		}
	}
	if rep.UniqueCrashes < best {
		t.Errorf("crash union %d < best member %d", rep.UniqueCrashes, best)
	}
}

func TestSingleMemberEnsemble(t *testing.T) {
	prog, seeds := ensembleTarget(t)
	ens, err := newEnsemble(prog, seeds, ensembleMembers()[:1], 1000, fuzzer.Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := ens.RunExecs(1000); err != nil {
		t.Fatal(err)
	}
	if got := ens.Report().TotalExecs; got < 1000 {
		t.Errorf("TotalExecs = %d", got)
	}
}
