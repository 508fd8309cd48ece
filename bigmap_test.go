package bigmap_test

import (
	"testing"

	"github.com/bigmap/bigmap"
	"github.com/bigmap/bigmap/internal/rng"
)

// smallProgram generates a compact fuzzable target through the public API.
func smallProgram(t testing.TB) *bigmap.Program {
	t.Helper()
	prog, err := bigmap.Generate(bigmap.GenSpec{
		Name:           "facade",
		Seed:           1,
		NumFuncs:       4,
		BlocksPerFunc:  12,
		InputLen:       32,
		BranchFraction: 0.6,
		CrashSites:     2,
		CrashDepth:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestFacadeMapsRoundTrip(t *testing.T) {
	for _, mk := range []func(int) (bigmap.Map, error){
		func(n int) (bigmap.Map, error) { return bigmap.NewAFLMap(n) },
		func(n int) (bigmap.Map, error) { return bigmap.NewBigMap(n) },
	} {
		m, err := mk(bigmap.MapSize64K)
		if err != nil {
			t.Fatal(err)
		}
		virgin := m.NewVirgin()
		m.Add(42)
		m.Classify()
		if v := m.CompareWith(virgin); v != bigmap.VerdictNewEdges {
			t.Errorf("%s: verdict = %v", m.Scheme(), v)
		}
	}
}

func TestFacadeMetrics(t *testing.T) {
	for _, mk := range []func() (bigmap.Metric, error){
		func() (bigmap.Metric, error) { return bigmap.NewEdgeMetric(bigmap.MapSize64K) },
		func() (bigmap.Metric, error) { return bigmap.NewNGramMetric(bigmap.MapSize64K, 3) },
		func() (bigmap.Metric, error) { return bigmap.NewContextMetric(bigmap.MapSize64K) },
	} {
		m, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		m.Begin()
		if key := m.Visit(123); key >= bigmap.MapSize64K {
			t.Errorf("%s: key out of range", m.Name())
		}
	}
}

func TestFacadeFuzzerWithOptions(t *testing.T) {
	prog := smallProgram(t)
	reg := bigmap.NewTelemetry()
	f, err := bigmap.NewFuzzer(prog,
		bigmap.WithScheme(bigmap.SchemeBigMap),
		bigmap.WithMapSize(bigmap.MapSize2M),
		bigmap.WithSeed(7),
		bigmap.WithTelemetry(reg),
	)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(9)
	for _, s := range prog.SampleSeeds(src, 4) {
		_ = f.AddSeed(s) // crashing seeds are allowed to fail
	}
	if f.Queue().Len() == 0 {
		t.Fatal("no seeds accepted")
	}
	if err := f.RunExecs(3000); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Execs < 3000 || st.EdgesDiscovered == 0 {
		t.Errorf("stats = %+v", st)
	}
	if h := reg.Snapshot().Histograms["fuzzer_exec_ns"]; h.Count != st.Execs || h.Sum == 0 {
		t.Errorf("exec timings not recorded: %+v", h)
	}
}

func TestFacadeProfilesAndCollision(t *testing.T) {
	if len(bigmap.Profiles()) != 19 {
		t.Error("Profiles() != 19")
	}
	if len(bigmap.CompositionProfiles()) != 13 {
		t.Error("CompositionProfiles() != 13")
	}
	if _, ok := bigmap.ProfileByName("zlib"); !ok {
		t.Error("zlib missing")
	}
	rate, err := bigmap.CollisionRate(bigmap.MapSize64K, 40948)
	if err != nil {
		t.Fatal(err)
	}
	if rate < 0.25 || rate > 0.27 {
		t.Errorf("CollisionRate = %v, want ~0.2564 (Table II sqlite3)", rate)
	}
	p, err := bigmap.BirthdayProbability(bigmap.MapSize64K, 300)
	if err != nil || p < 0.45 || p > 0.55 {
		t.Errorf("BirthdayProbability = %v, %v", p, err)
	}
	if got := bigmap.MeasureCollisions([]uint32{4, 2, 5, 3, 2}); got != 0.2 {
		t.Errorf("MeasureCollisions = %v, want 0.2 (paper §II-B example)", got)
	}
}

func TestFacadeLafIntel(t *testing.T) {
	prog, err := bigmap.Generate(bigmap.GenSpec{
		Name:          "laf",
		Seed:          2,
		NumFuncs:      2,
		BlocksPerFunc: 10,
		InputLen:      32,
		MagicCompares: 3,
		MagicWidth:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	laf, stats := bigmap.LafIntel(prog, 1)
	if stats.SplitCompares < 3 || stats.StaticEdgesAfter <= stats.StaticEdgesBefore {
		t.Errorf("laf stats = %+v", stats)
	}
	if laf.Name != "laf+laf" && laf.Name != "laf"+"+laf" {
		t.Logf("transformed name: %s", laf.Name)
	}
}

func TestFacadeCampaign(t *testing.T) {
	prog := smallProgram(t)
	seeds := prog.SampleSeeds(rng.New(11), 4)
	camp, err := bigmap.NewCampaign(prog, bigmap.CampaignConfig{
		Instances: 2,
		SyncEvery: 1000,
		Fuzzer:    bigmap.FuzzerConfig{Scheme: bigmap.SchemeBigMap, Seed: 3},
	}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if err := camp.RunExecs(2000); err != nil {
		t.Fatal(err)
	}
	rep := camp.Report()
	if rep.TotalExecs < 4000 || rep.MaxEdges == 0 {
		t.Errorf("report = %+v", rep)
	}
}

func TestFacadeClassifyByte(t *testing.T) {
	if bigmap.ClassifyByte(5) != 8 {
		t.Error("ClassifyByte(5) != bucket 8")
	}
}
