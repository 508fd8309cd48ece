package bigmap_test

import (
	"testing"
	"time"

	"github.com/bigmap/bigmap"
)

// TestAllOptionsCompose exercises every functional option end to end.
func TestAllOptionsCompose(t *testing.T) {
	prog := smallProgram(t)
	reg := bigmap.NewTelemetry()
	f, err := bigmap.NewFuzzer(prog,
		bigmap.WithScheme(bigmap.SchemeBigMap),
		bigmap.WithMapSize(bigmap.MapSize256K),
		bigmap.WithSeed(99),
		bigmap.WithContextMetric(),
		bigmap.WithTelemetry(reg),
		bigmap.WithSplitClassifyCompare(),
		bigmap.WithDictionary([][]byte{[]byte("tok")}),
		bigmap.WithExecBudget(1<<20),
		bigmap.WithExecCostFactor(1),
		bigmap.WithPowerSchedule("fast"),
		bigmap.WithCmpLog(),
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range bigmap.SynthesizeSeeds(prog, 1, 4) {
		_ = f.AddSeed(s)
	}
	if f.Queue().Len() == 0 {
		t.Fatal("no seeds accepted")
	}
	if err := f.RunExecs(2000); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Execs < 2000 {
		t.Errorf("execs = %d", st.Execs)
	}
	h := reg.Snapshot().Histograms
	if h["map_bigmap_classify_ns"].Sum == 0 || h["map_bigmap_compare_ns"].Sum == 0 {
		t.Error("split timings not recorded")
	}
}

func TestWithDeterministicStagesOption(t *testing.T) {
	prog := smallProgram(t)
	f, err := bigmap.NewFuzzer(prog, bigmap.WithDeterministicStages(), bigmap.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range bigmap.SynthesizeSeeds(prog, 2, 2) {
		_ = f.AddSeed(s)
	}
	if f.Queue().Len() == 0 {
		t.Fatal("no seeds")
	}
	if err := f.RunFor(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if f.Stats().Execs == 0 {
		t.Error("RunFor executed nothing")
	}
}

func TestWithNGramRejectsBadN(t *testing.T) {
	prog := smallProgram(t)
	if _, err := bigmap.NewFuzzer(prog, bigmap.WithNGram(1)); err == nil {
		t.Error("ngram n=1 accepted")
	}
}

func TestWithPowerScheduleRejectsBogus(t *testing.T) {
	prog := smallProgram(t)
	if _, err := bigmap.NewFuzzer(prog, bigmap.WithPowerSchedule("bogus")); err == nil {
		t.Error("bogus schedule accepted")
	}
}

// TestRobustnessOptionsAndCheckpoint exercises the robustness surface of
// the facade: calibration + fault injection feed the stability stats, a
// slot-capped BigMap saturates gracefully, and a checkpoint written through
// the file API resumes into an instance that continues the same campaign.
func TestRobustnessOptionsAndCheckpoint(t *testing.T) {
	prog := smallProgram(t)
	opts := []bigmap.Option{
		bigmap.WithScheme(bigmap.SchemeBigMap),
		bigmap.WithMapSize(bigmap.MapSize64K),
		bigmap.WithSeed(41),
		bigmap.WithCalibration(3),
		bigmap.WithSlotCap(64),
		bigmap.WithFaultProfile(bigmap.FaultProfile{
			Seed: 5, FlakyEdgeFraction: 200, DropRate: 300,
		}),
	}
	f, err := bigmap.NewFuzzer(prog, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range bigmap.SynthesizeSeeds(prog, 1, 4) {
		_ = f.AddSeed(s)
	}
	if f.Queue().Len() == 0 {
		t.Fatal("no seeds accepted")
	}
	if err := f.RunExecs(4000); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.CalibExecs == 0 {
		t.Error("calibration never ran")
	}
	if st.Stability >= 100 || st.VariableEdges == 0 {
		t.Errorf("faulty target reported stability %.2f%% / %d variable edges",
			st.Stability, st.VariableEdges)
	}

	path := t.TempDir() + "/run.bmcp"
	if err := bigmap.SaveFuzzerCheckpoint(path, f); err != nil {
		t.Fatal(err)
	}
	snap, err := bigmap.LoadFuzzerCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	g, err := bigmap.ResumeFuzzer(prog, snap, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if g.Execs() != f.Execs() || g.Queue().Len() != f.Queue().Len() {
		t.Errorf("resumed instance at %d execs / %d paths, want %d / %d",
			g.Execs(), g.Queue().Len(), f.Execs(), f.Queue().Len())
	}
	if err := g.RunExecs(1000); err != nil {
		t.Fatal(err)
	}
}

// TestCampaignCheckpointFacade round-trips a parallel campaign through the
// campaign checkpoint API.
func TestCampaignCheckpointFacade(t *testing.T) {
	prog := smallProgram(t)
	seeds := bigmap.SynthesizeSeeds(prog, 2, 4)
	c, err := bigmap.NewCampaign(prog, bigmap.CampaignConfig{
		Instances: 2,
		SyncEvery: 1000,
		Fuzzer:    bigmap.FuzzerConfig{Seed: 42, Scheme: bigmap.SchemeBigMap},
	}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunRounds(2); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/campaign.bmcp"
	if err := bigmap.SaveCampaignCheckpoint(path, c); err != nil {
		t.Fatal(err)
	}
	snap, err := bigmap.LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := bigmap.ResumeCampaign(prog, bigmap.CampaignConfig{
		Fuzzer: bigmap.FuzzerConfig{Seed: 42, Scheme: bigmap.SchemeBigMap},
	}, snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.RunRounds(1); err != nil {
		t.Fatal(err)
	}
	if got, was := c2.Report().TotalExecs, c.Report().TotalExecs; got <= was {
		t.Errorf("resumed campaign did not progress: %d <= %d", got, was)
	}
}
