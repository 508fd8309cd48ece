package fuzzer

import (
	"testing"

	"github.com/bigmap/bigmap/internal/telemetry"
)

// TestTelemetryCountersMatchStats wires a fuzzer into a registry, runs a
// short campaign in each classify/compare mode and cross-checks every
// registry counter against the fuzzer's own (authoritative) bookkeeping.
// The map-operation histograms are Figure 3's only timing source, so each
// counted exec must reset exactly once and classify exactly once.
func TestTelemetryCountersMatchStats(t *testing.T) {
	for _, tc := range []struct {
		name  string
		split bool
	}{{"merged", false}, {"split", true}} {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.New()
			prog := fuzzTarget(t)
			f, err := New(prog, Config{Seed: 3, Telemetry: reg, SplitClassifyCompare: tc.split})
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
			if got := s.Histograms["fuzzer_exec_ns"].Count; got != st.Execs {
				t.Errorf("fuzzer_exec_ns count = %d, want one sample per exec (%d)", got, st.Execs)
			}
			if s.Histograms["fuzzer_stage_havoc_ns"].Count == 0 {
				t.Error("no havoc stage timings recorded")
			}

			// The coverage map was instrumented through core.Instrumented.
			reset := s.Histograms["map_afl_reset_ns"].Count
			classify := s.Histograms["map_afl_classify_ns"].Count
			compare := s.Histograms["map_afl_compare_ns"].Count
			merged := s.Histograms["map_afl_classify_compare_ns"].Count
			if reset != st.Execs {
				t.Errorf("map_afl_reset_ns count = %d, want %d", reset, st.Execs)
			}
			if classify+merged != st.Execs {
				t.Errorf("classify %d + classify_compare %d != execs %d", classify, merged, st.Execs)
			}
			if s.Histograms["map_afl_hash_ns"].Count == 0 {
				t.Error("no hash timings recorded")
			}
			if tc.split {
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
	if f.tel.execs != nil || f.tel.execNs != nil || f.tel.stageHavoc != nil {
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
