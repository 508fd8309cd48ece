package fuzzer

import (
	"errors"
	"math"
	"testing"
	"time"

	"github.com/bigmap/bigmap/internal/core"
	"github.com/bigmap/bigmap/internal/rng"
	"github.com/bigmap/bigmap/internal/target"
)

// fuzzTarget generates a small branchy program with reachable crash sites.
func fuzzTarget(t *testing.T) *target.Program {
	t.Helper()
	prog, err := target.Generate(target.GenSpec{
		Name:           "fuzzme",
		Seed:           7,
		NumFuncs:       6,
		BlocksPerFunc:  16,
		InputLen:       48,
		BranchFraction: 0.6,
		Switches:       2,
		SwitchFanout:   4,
		Loops:          2,
		LoopMax:        8,
		CrashSites:     4,
		CrashDepth:     1, // shallow: findable within a small exec budget
		HangSites:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func seedCorpus(t *testing.T, f *Fuzzer, prog *target.Program, n int) {
	t.Helper()
	src := rng.New(1000)
	added := 0
	for _, s := range prog.SampleSeeds(src, n*2) {
		if err := f.AddSeed(s); err == nil {
			added++
		}
		if added == n {
			return
		}
	}
	if added == 0 {
		t.Fatal("no seeds accepted")
	}
}

func TestNewAppliesDefaults(t *testing.T) {
	f, err := New(fuzzTarget(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if f.Map().Scheme() != "afl" || f.Map().Size() != core.MapSize64K {
		t.Errorf("defaults wrong: scheme=%s size=%d", f.Map().Scheme(), f.Map().Size())
	}
}

func TestNewRejectsUnknownScheme(t *testing.T) {
	if _, err := New(fuzzTarget(t), Config{Scheme: "bogus"}); err == nil {
		t.Error("unknown scheme accepted")
	}
}

// TestNewRejectsBadExecCost: a negative or NaN charge would stop the clock
// or run it backwards, so RunFor would never reach its deadline.
func TestNewRejectsBadExecCost(t *testing.T) {
	for _, ns := range []float64{-1, math.NaN()} {
		if _, err := New(fuzzTarget(t), Config{ExecCostNs: ns}); err == nil {
			t.Errorf("ExecCostNs %v accepted", ns)
		}
	}
}

func TestRunWithoutSeeds(t *testing.T) {
	f, err := New(fuzzTarget(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.RunExecs(10); !errors.Is(err, ErrNoSeeds) {
		t.Errorf("err = %v, want ErrNoSeeds", err)
	}
}

func TestAddSeedEnqueues(t *testing.T) {
	prog := fuzzTarget(t)
	f, err := New(prog, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	seedCorpus(t, f, prog, 3)
	if f.Queue().Len() < 3 {
		t.Errorf("queue = %d entries, want >= 3", f.Queue().Len())
	}
	st := f.Stats()
	if st.EdgesDiscovered == 0 {
		t.Error("seeds discovered no edges")
	}
}

func TestAddSeedRejectsCrashingInput(t *testing.T) {
	// A program whose every run crashes immediately.
	prog := &target.Program{
		Name:     "boom",
		InputLen: 8,
		Funcs: []target.Func{{Blocks: []target.Block{
			{ID: 1, Cost: 1, Node: target.Node{Kind: target.KindCrash}},
		}}},
	}
	f, err := New(prog, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.AddSeed([]byte{1, 2, 3}); err == nil {
		t.Error("crashing seed accepted")
	}
	if f.Queue().Len() != 0 {
		t.Error("crashing seed enqueued")
	}
}

// TestAddSeedsCountsAccepted: AddSeeds reports how many seeds entered the
// queue, skips a crashing one, and wraps ErrNoSeeds when none is usable.
func TestAddSeedsCountsAccepted(t *testing.T) {
	prog := fuzzTarget(t)
	src := rng.New(1000)
	var witness []byte
	for attempt := 0; attempt < 500 && witness == nil; attempt++ {
		witness, _ = prog.SynthesizeCrashWitness(src)
	}
	if witness == nil {
		t.Fatal("no crash witness")
	}
	f, err := New(prog, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.AddSeeds([][]byte{witness}); n != 0 || !errors.Is(err, ErrNoSeeds) {
		t.Fatalf("AddSeeds(crash witness) = %d, %v; want 0, ErrNoSeeds", n, err)
	}
	seeds := append(prog.SampleSeeds(src, 4), witness)
	n, err := f.AddSeeds(seeds)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || n == len(seeds) || n != f.Queue().Len() {
		t.Errorf("accepted %d of %d seeds, queue holds %d; want the crash witness skipped",
			n, len(seeds), f.Queue().Len())
	}
}

func TestFuzzingDiscoversNewPaths(t *testing.T) {
	prog := fuzzTarget(t)
	f, err := New(prog, Config{Seed: 2, Scheme: SchemeBigMap})
	if err != nil {
		t.Fatal(err)
	}
	seedCorpus(t, f, prog, 3)
	before := f.Stats()
	if err := f.RunExecs(20000); err != nil {
		t.Fatal(err)
	}
	after := f.Stats()
	if after.Execs < 20000 {
		t.Errorf("Execs = %d, want >= 20000", after.Execs)
	}
	if after.Paths <= before.Paths {
		t.Errorf("paths %d -> %d: fuzzing found nothing new", before.Paths, after.Paths)
	}
	if after.EdgesDiscovered <= before.EdgesDiscovered {
		t.Errorf("edges %d -> %d: coverage did not grow", before.EdgesDiscovered, after.EdgesDiscovered)
	}
}

func TestFuzzingFindsShallowCrashes(t *testing.T) {
	prog := fuzzTarget(t)
	f, err := New(prog, Config{Seed: 3, Scheme: SchemeBigMap})
	if err != nil {
		t.Fatal(err)
	}
	seedCorpus(t, f, prog, 3)
	if err := f.RunExecs(60000); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Crashes == 0 {
		t.Fatal("no crashing executions in 60k execs against depth-1 guards")
	}
	if st.UniqueCrashes == 0 {
		t.Error("crashes observed but no unique buckets")
	}
	if st.UniqueCrashes > int(st.Crashes) {
		t.Error("more unique buckets than crashes")
	}
}

// TestSchemesProduceEquivalentCampaigns is the end-to-end counterpart of
// the map equivalence property: with the same seed, mutation stream and
// target, an AFL-scheme campaign and a BigMap campaign see identical
// coverage verdicts, so they must converge to near-identical queue growth
// and coverage. The campaigns are not bit-identical: queue culling iterates
// coverage slots in order, and slot identities differ between schemes (raw
// keys vs dense assignment order), which can shuffle which champion is
// favored first — a divergence the real AFL-vs-BigMap pair has too.
func TestSchemesProduceEquivalentCampaigns(t *testing.T) {
	prog := fuzzTarget(t)
	run := func(scheme Scheme) Stats {
		f, err := New(prog, Config{Seed: 4, Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}
		seedCorpus(t, f, prog, 3)
		if err := f.RunExecs(15000); err != nil {
			t.Fatal(err)
		}
		return f.Stats()
	}
	a := run(SchemeAFL)
	b := run(SchemeBigMap)

	within := func(x, y, pct int) bool {
		d := x - y
		if d < 0 {
			d = -d
		}
		lim := (x + y) * pct / 200
		if lim < 2 {
			lim = 2
		}
		return d <= lim
	}
	if !within(a.Paths, b.Paths, 15) {
		t.Errorf("paths diverged: afl=%d bigmap=%d", a.Paths, b.Paths)
	}
	if !within(a.EdgesDiscovered, b.EdgesDiscovered, 10) {
		t.Errorf("edges diverged: afl=%d bigmap=%d", a.EdgesDiscovered, b.EdgesDiscovered)
	}
}

func TestBigMapUsedKeysStaysSmall(t *testing.T) {
	prog := fuzzTarget(t)
	f, err := New(prog, Config{Seed: 5, Scheme: SchemeBigMap, MapSize: core.MapSize2M})
	if err != nil {
		t.Fatal(err)
	}
	seedCorpus(t, f, prog, 3)
	if err := f.RunExecs(5000); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.UsedKeys == 0 {
		t.Fatal("used_key never grew")
	}
	if st.UsedKeys > prog.StaticEdges()*2 {
		t.Errorf("used_key %d far exceeds static edges %d", st.UsedKeys, prog.StaticEdges())
	}
	if st.UsedKeys >= core.MapSize2M/100 {
		t.Errorf("used_key %d is not a small fraction of the 2MB map", st.UsedKeys)
	}
}

func TestImportInput(t *testing.T) {
	prog := fuzzTarget(t)
	a, err := New(prog, Config{Seed: 7, Scheme: SchemeBigMap})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(prog, Config{Seed: 8, Scheme: SchemeBigMap})
	if err != nil {
		t.Fatal(err)
	}
	seedCorpus(t, a, prog, 3)
	if err := a.RunExecs(10000); err != nil {
		t.Fatal(err)
	}

	imported := 0
	for _, e := range a.Queue().Entries() {
		if b.ImportInput(e.Input) {
			imported++
		}
	}
	if imported == 0 {
		t.Error("no inputs imported into a fresh instance")
	}
	if b.Queue().Len() != imported {
		t.Errorf("queue %d != imported %d", b.Queue().Len(), imported)
	}
	// Importing the same inputs again must add nothing.
	again := 0
	for _, e := range a.Queue().Entries() {
		if b.ImportInput(e.Input) {
			again++
		}
	}
	if again != 0 {
		t.Errorf("%d inputs re-imported", again)
	}
}

func TestDeterministicStageRuns(t *testing.T) {
	prog := fuzzTarget(t)
	f, err := New(prog, Config{Seed: 9, RunDeterministic: true, HavocRounds: 1, SpliceRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	seedCorpus(t, f, prog, 1)
	if err := f.Step(); err != nil {
		t.Fatal(err)
	}
	// Deterministic stages on a 48-byte input produce thousands of execs,
	// far beyond the 1 havoc + 1 splice configured.
	if f.Execs() < 1000 {
		t.Errorf("Execs = %d; deterministic stage apparently skipped", f.Execs())
	}
}

func TestNGramMetricCampaign(t *testing.T) {
	prog := fuzzTarget(t)
	f, err := New(prog, Config{
		Seed:   10,
		Scheme: SchemeBigMap,
		Metric: func(size int) (core.Metric, error) { return core.NewNGramMetric(size, 3) },
	})
	if err != nil {
		t.Fatal(err)
	}
	seedCorpus(t, f, prog, 3)
	if err := f.RunExecs(5000); err != nil {
		t.Fatal(err)
	}
	if f.Stats().EdgesDiscovered == 0 {
		t.Error("ngram campaign discovered nothing")
	}
}

// TestCmpLogSolvesMagicRoadblocks pins the input-to-state stage: a target
// gated behind 4-byte magic values is practically unsolvable by havoc within
// a small budget, but trivial with cmplog enabled.
func TestCmpLogSolvesMagicRoadblocks(t *testing.T) {
	prog, err := target.Generate(target.GenSpec{
		Name:           "roadblock",
		Seed:           91,
		NumFuncs:       3,
		BlocksPerFunc:  10,
		InputLen:       64,
		BranchFraction: 0.3,
		MagicCompares:  6,
		MagicWidth:     4,
		BonusBlocks:    10,
	})
	if err != nil {
		t.Fatal(err)
	}
	edges := func(cmpLog bool) int {
		f, err := New(prog, Config{Seed: 5, Scheme: SchemeBigMap, EnableCmpLog: cmpLog})
		if err != nil {
			t.Fatal(err)
		}
		seedCorpus(t, f, prog, 3)
		if err := f.RunExecs(8000); err != nil {
			t.Fatal(err)
		}
		return f.Stats().EdgesDiscovered
	}
	plain := edges(false)
	solved := edges(true)
	if solved <= plain {
		t.Errorf("cmplog did not help: %d edges with vs %d without", solved, plain)
	}
}

// TestRunForStopsOnCharge: with the wall clock frozen, only the execution
// charge moves an instance's Clock, and RunFor stops at the first deadline
// check where it has passed the budget: no execution runs after that check.
// The charge never touches fuzzing state, so the campaign is the one an
// uncharged instance runs for the same execs.
func TestRunForStopsOnCharge(t *testing.T) {
	prog := fuzzTarget(t)
	cfg := Config{Scheme: SchemeBigMap, Seed: 9, ExecCostNs: 1500}
	f, err := New(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seedCorpus(t, f, prog, 4)

	type check struct {
		charged time.Duration
		execs   uint64
	}
	var checks []check
	frozen := time.Unix(0, 0)
	f.now = func() time.Time {
		checks = append(checks, check{f.Charged(), f.Execs()})
		if len(checks) > 100000 {
			return frozen.Add(24 * time.Hour) // the charge is ignored: end instead of spinning
		}
		return frozen
	}
	const budget = 50 * time.Millisecond
	if err := f.RunFor(budget); err != nil {
		t.Fatal(err)
	}
	start := checks[0].charged // the deadline's base
	first := -1
	for i, c := range checks[1:] {
		if c.charged-start >= budget {
			first = i + 1
			break
		}
	}
	if first < 0 {
		t.Fatalf("RunFor returned after %d checks, none with the budget charged", len(checks))
	}
	if first < 3 {
		t.Fatalf("budget passed at check %d: too coarse to test a mid-round cut", first)
	}
	t.Logf("budget charged at check %d of %d, after %d execs", first, len(checks), checks[first].execs)
	for _, c := range checks[first+1:] {
		if c.execs != checks[first].execs {
			t.Fatalf("%d execs ran after the check that found the budget charged", c.execs-checks[first].execs)
		}
	}

	// An uncharged instance whose wall clock expires at the same check
	// (call first+1) runs the same campaign: the charge is clock only.
	ref, err := New(prog, Config{Scheme: SchemeBigMap, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	seedCorpus(t, ref, prog, 4)
	ref.now = (&scriptedClock{start: frozen, n: first}).now
	if err := ref.RunFor(budget); err != nil {
		t.Fatal(err)
	}
	if got, want := checkpointDigest(f), checkpointDigest(ref); got != want || f.Execs() != ref.Execs() {
		t.Fatalf("charged campaign (%d execs, %s) differs from the uncharged one cut at the same check (%d execs, %s)",
			f.Execs(), got, ref.Execs(), want)
	}
}
