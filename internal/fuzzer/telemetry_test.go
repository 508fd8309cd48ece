package fuzzer

import (
	"testing"

	"github.com/bigmap/bigmap/internal/core"
	"github.com/bigmap/bigmap/internal/telemetry"
)

// TestTelemetryCountersMatchStats wires a fuzzer into a registry, runs a
// short campaign in each classify/compare mode on each map scheme and
// cross-checks every registry counter against the fuzzer's own
// (authoritative) bookkeeping. The map-operation histograms are Figure 3's
// and the benchmark trace's only timing source, so each counted exec must
// reset exactly once and classify exactly once.
func TestTelemetryCountersMatchStats(t *testing.T) {
	for _, tc := range []struct {
		name  string
		split bool
	}{{"merged", false}, {"split", true}} {
		t.Run(tc.name, func(t *testing.T) {
			for _, scheme := range []Scheme{SchemeAFL, SchemeBigMap} {
				t.Run(string(scheme), func(t *testing.T) {
					checkTelemetryCounters(t, scheme, tc.split)
				})
			}
		})
	}
}

func checkTelemetryCounters(t *testing.T, scheme Scheme, split bool) {
	reg := telemetry.New()
	prog := fuzzTarget(t)
	f, err := New(prog, Config{Seed: 3, Scheme: scheme, Telemetry: reg, SplitClassifyCompare: split})
	if err != nil {
		t.Fatal(err)
	}
	seedCorpus(t, f, prog, 4)
	if err := f.RunExecs(5000); err != nil {
		t.Fatal(err)
	}

	st := f.Stats()
	s := reg.Snapshot()
	if got := s.Counters["fuzzer_execs_total"]; got != st.Execs {
		t.Errorf("fuzzer_execs_total = %d, stats say %d", got, st.Execs)
	}
	if got := s.Counters["fuzzer_crashes_total"]; got != st.Crashes {
		t.Errorf("fuzzer_crashes_total = %d, stats say %d", got, st.Crashes)
	}
	if got := s.Counters["fuzzer_hangs_total"]; got != st.Hangs {
		t.Errorf("fuzzer_hangs_total = %d, stats say %d", got, st.Hangs)
	}
	if got := s.Gauges["fuzzer_queue_paths"]; got != int64(st.Paths) {
		t.Errorf("fuzzer_queue_paths = %d, stats say %d", got, st.Paths)
	}
	if got := s.Gauges["fuzzer_edges_discovered"]; got != int64(st.EdgesDiscovered) {
		t.Errorf("fuzzer_edges_discovered = %d, stats say %d", got, st.EdgesDiscovered)
	}
	if got := s.Histograms[ExecMetric].Count; got != st.Execs {
		t.Errorf("%s count = %d, want one sample per exec (%d)", ExecMetric, got, st.Execs)
	}
	if s.Histograms["fuzzer_stage_havoc_ns"].Count == 0 {
		t.Error("no havoc stage timings recorded")
	}

	count := func(op MapOp) uint64 { return s.Histograms[MapOpMetric(scheme, op)].Count }
	reset, classify, compare, merged := count(MapReset), count(MapClassify), count(MapCompare), count(MapClassifyCompare)
	if reset != st.Execs {
		t.Errorf("%s count = %d, want %d", MapOpMetric(scheme, MapReset), reset, st.Execs)
	}
	if classify+merged != st.Execs {
		t.Errorf("classify %d + classify_compare %d != execs %d", classify, merged, st.Execs)
	}
	if count(MapHash) == 0 {
		t.Error("no hash timings recorded")
	}
	if split {
		if classify == 0 || compare == 0 || merged != 0 {
			t.Errorf("split mode: classify %d, compare %d, classify_compare %d", classify, compare, merged)
		}
	} else {
		// Trim runs classify without a virgin compare, so only
		// compare stays at zero in merged mode.
		if merged == 0 || compare != 0 {
			t.Errorf("merged mode: classify_compare %d, compare %d", merged, compare)
		}
	}
}

// TestExecLoopZeroAllocsTelemetry is the overhead guard for the telemetry
// layer on the fuzzer's per-exec pipeline (runOne: reset, execute,
// classify+compare, each timed): it must stay 0 allocs/op with telemetry
// off (nil handles, the default) and on (recording is atomic adds into
// preallocated buckets). The loop replays a seed, so it finds nothing new.
func TestExecLoopZeroAllocsTelemetry(t *testing.T) {
	for _, mode := range []string{"disabled", "enabled"} {
		t.Run(mode, func(t *testing.T) {
			var reg *telemetry.Registry
			if mode == "enabled" {
				reg = telemetry.New()
			}
			f := newProfileFuzzer(t, profileTarget(t, "libpng", 0.05),
				Config{Scheme: SchemeBigMap, MapSize: core.MapSize8M, Seed: 1, Telemetry: reg})
			input := f.Queue().Get(0).Input
			allocs := testing.AllocsPerRun(50, func() {
				if _, v := f.runOne(input, nil); v != core.VerdictNone {
					t.Fatal("replayed seed found new coverage")
				}
			})
			if allocs != 0 {
				t.Errorf("telemetry-%s exec loop allocates %.2f per exec, want 0", mode, allocs)
			}
			if reg == nil {
				return
			}
			h := reg.Snapshot().Histograms
			for _, name := range []string{ExecMetric, MapOpMetric(SchemeBigMap, MapReset), MapOpMetric(SchemeBigMap, MapClassifyCompare)} {
				if h[name].Count == 0 {
					t.Errorf("enabled run recorded nothing into %s", name)
				}
			}
		})
	}
}

// TestTelemetryDoesNotPerturbFuzzing runs the same seeded campaign with and
// without a registry and requires identical outcomes: observability must be
// read-only with respect to fuzzing behaviour, or resume determinism (and
// every A/B experiment) silently breaks.
func TestTelemetryDoesNotPerturbFuzzing(t *testing.T) {
	prog := fuzzTarget(t)
	run := func(reg *telemetry.Registry) Stats {
		f, err := New(prog, Config{Seed: 7, Telemetry: reg})
		if err != nil {
			t.Fatal(err)
		}
		seedCorpus(t, f, prog, 4)
		if err := f.RunExecs(4000); err != nil {
			t.Fatal(err)
		}
		return f.Stats()
	}
	bare := run(nil)
	instrumented := run(telemetry.New())

	if bare.Execs != instrumented.Execs ||
		bare.Paths != instrumented.Paths ||
		bare.EdgesDiscovered != instrumented.EdgesDiscovered ||
		bare.Crashes != instrumented.Crashes ||
		bare.UniqueCrashes != instrumented.UniqueCrashes {
		t.Errorf("telemetry perturbed the campaign:\nbare         %+v\ninstrumented %+v",
			bare, instrumented)
	}
}

// TestTelemetryNilRegistryIsFree checks the disabled wiring end to end: a
// fuzzer built without a registry must carry only nil handles, so the hot
// loop's record sites stay nil checks.
func TestTelemetryNilRegistryIsFree(t *testing.T) {
	prog := fuzzTarget(t)
	f, err := New(prog, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if f.tel != (telemetryHooks{}) {
		t.Fatal("nil registry must produce zero telemetryHooks")
	}
	if f.Telemetry() != nil {
		t.Fatal("Telemetry() must be nil when unconfigured")
	}
	seedCorpus(t, f, prog, 2)
	if err := f.RunExecs(500); err != nil {
		t.Fatal(err)
	}
}
