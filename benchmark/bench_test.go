package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/bigmap/bigmap/internal/core"
)

// small returns a workload with one trial and the run length that gives it
// about 1% of its budget; under -short, 0.25% and 64K coverage maps.
func small(t *testing.T, w workload) (workload, float64) {
	w.trials = 1
	if !testing.Short() {
		return w, refSeconds / 100
	}
	switch v := w.run.(type) {
	case single:
		v.mapSize = core.MapSize64K
		w.run = v
	case corpusdCampaign:
		v.mapSize = core.MapSize64K
		w.run = v
	case hostedBatch:
		v.mapSize = core.MapSize64K
		w.run = v
	default:
		t.Fatalf("no small form of %T", w.run)
	}
	return w, refSeconds / 400
}

// smokeRuns measures every workload at its small budget, untraced and
// traced, once per test binary.
var smokeRuns = map[string][2]*result{}

func smoke(t *testing.T) map[string][2]*result {
	t.Helper()
	if len(smokeRuns) > 0 {
		return smokeRuns
	}
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range workloads {
		w, seconds := small(t, w)
		var pair [2]*result
		for i, traced := range []bool{false, true} {
			res, _, err := measure(w, 7, seconds, traced)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, traced, err)
			}
			pair[i] = res
		}
		smokeRuns[w.name] = pair
	}
	return smokeRuns
}

func TestWorkloadsSmoke(t *testing.T) {
	for name, pair := range smoke(t) {
		for _, res := range pair {
			if !res.Correct {
				t.Errorf("%s (trace %v): output checks failed: %v", name, res.Trace, res.Problems)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s (trace %v): %d attempted, %d failed", name, res.Trace, res.Attempted, res.Failed)
			}
		}
		for _, s := range endToEnd {
			if v := pair[0].Metrics[s.name].Value; !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, s.name, v)
			}
		}
	}
}

// benchmarkJSON is BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesEmittedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if i < len(workloads) && (w.Name != workloads[i].name || w.Why != workloads[i].why) {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	declared := func(names []metricSpec) map[string]metricSpec {
		m := map[string]metricSpec{}
		for _, s := range names {
			m[s.name] = s
		}
		return m
	}
	var e2e, layer []metricSpec
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bj.PerLayer {
		layer = append(layer, metricSpec{m.Name, m.Unit, m.Better})
	}
	for name, pair := range smoke(t) {
		for i, want := range []map[string]metricSpec{declared(e2e), declared(layer)} {
			got := pair[i].Metrics
			for n, s := range want {
				m, ok := got[n]
				if !ok || m.Unit != s.unit {
					t.Errorf("%s: declared metric %s (%s) emitted as %+v", name, n, s.unit, m)
				}
			}
			for n := range got {
				if _, ok := want[n]; !ok {
					t.Errorf("%s: emitted metric %s is not in BENCHMARK.json", name, n)
				}
			}
		}
	}
	for i, specs := range [][]metricSpec{endToEnd, perLayer} {
		want := [][]metricSpec{e2e, layer}[i]
		for _, s := range specs {
			if d, ok := declared(want)[s.name]; !ok || d != s {
				t.Errorf("metric %+v declared in BENCHMARK.json as %+v", s, d)
			}
		}
	}
}

// TestLayerSelfTimesSumToStepTime checks the traced breakdown of the
// single-instance workloads: the self times of executor, map operations,
// stages and scheduling are non-negative and add up, within 10%, to the wall
// time of the Steps they were measured in.
func TestLayerSelfTimesSumToStepTime(t *testing.T) {
	parts := []string{"executor.execute_share", "core.reset_share", "core.classify_compare_share",
		"core.hash_share", "fuzzer.stage_self_share", "fuzzer.schedule_share"}
	for _, name := range []string{"afl-flat-8M", "bigmap-steady", "bigmap-growth"} {
		m := smoke(t)[name][1].Metrics
		sum := 0.0
		for _, p := range parts {
			if v := m[p].Value; v < -0.01 {
				t.Errorf("%s: %s = %v, want >= 0", name, p, v)
			}
			sum += m[p].Value
		}
		if sum < 0.9 || sum > 1.1 {
			t.Errorf("%s: layer self-time shares sum to %.3f of the Step time, want 1 ± 0.1", name, sum)
		}
	}
	// In a campaign the measured layers leave out barrier waits and
	// scheduling, so they may fall short of the whole but never exceed it.
	m := smoke(t)["campaign-corpusd"][1].Metrics
	sum := 0.0
	for _, p := range []string{"executor.execute_share", "core.reset_share", "core.classify_compare_share",
		"core.hash_share", "fuzzer.stage_self_share", "dist.push_share", "dist.pull_share",
		"dist.worker_self_share", "checkpoint.save_share"} {
		sum += m[p].Value
	}
	if sum <= 0 || sum > 1.1 {
		t.Errorf("campaign-corpusd: measured layer shares sum to %.3f, want (0, 1.1]", sum)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if q1, q3 := quartiles(v); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median(v); m != 5.5 {
		t.Errorf("median = %v, want 5.5", m)
	}
	if s := spread(v); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", s)
	}
}

func TestVerdict(t *testing.T) {
	steady := func(base float64) []float64 {
		v := make([]float64, 10)
		for i := range v {
			v[i] = base + float64(i%3) // IQR 2 around base+1
		}
		return v
	}
	noisy := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}
	cases := []struct {
		name         string
		parent, cand []float64
		better       string
		want         string
	}{
		{"clear gain", steady(100), steady(110), "higher", improved},
		{"clear gain, lower is better", steady(100), steady(90), "lower", improved},
		{"small loss within bound", steady(100), steady(99), "higher", unchanged},
		{"loss beyond bound", steady(100), steady(80), "higher", regressed},
		{"loss beyond bound, lower is better", steady(100), steady(120), "lower", regressed},
		{"gap within parent spread", steady(100), steady(101), "higher", unchanged},
		{"noisy parent", noisy, steady(101), "higher", unresolved},
		{"noisy parent, clean sweep", noisy, steady(200), "higher", improved},
		{"too few pairs", steady(100)[:9], steady(110)[:9], "higher", tooFew},
		{"eight of ten wins", steady(100), append(steady(110)[:8], 0, 0), "higher", unchanged},
	}
	for _, c := range cases {
		if got := verdict(c.parent, c.cand, c.better, 0.1); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}

// pairedRuns returns ten alternating same-seed parent and candidate results
// whose execs_per_s read parent[i] and cand[i].
func pairedRuns(parent, cand []float64) (a, b []*result) {
	mk := func(seed uint64, minute int, v float64) *result {
		return &result{
			ID: fmt.Sprintf("r%d", minute), Seed: seed, Correct: true, Attempted: 100,
			Start:   time.Unix(0, 0).Add(time.Duration(minute) * time.Minute),
			Machine: machine(), Metrics: map[string]metric{"execs_per_s": {Value: v, Unit: "1/s"}},
		}
	}
	for i := range parent {
		a = append(a, mk(uint64(i), 2*i, parent[i]))
		b = append(b, mk(uint64(i), 2*i+1, cand[i]))
	}
	return a, b
}

func TestCompareWorkloadCountsFailures(t *testing.T) {
	var sp spec
	if err := json.Unmarshal([]byte(`{"end_to_end": [{"name": "execs_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}`), &sp); err != nil {
		t.Fatal(err)
	}
	parent := []float64{100, 101, 102, 100, 101, 102, 100, 101, 102, 100}
	faster := []float64{120, 121, 122, 120, 121, 122, 120, 121, 122, 120}
	var out strings.Builder
	a, b := pairedRuns(parent, faster)
	if code := compareWorkload(&out, "w", a, b, sp); code != 0 || !strings.Contains(out.String(), improved) {
		t.Errorf("clean gain: code %d, output\n%s", code, out.String())
	}
	b[3].Failed = 1
	out.Reset()
	code := compareWorkload(&out, "w", a, b, sp)
	if code != 1 || !strings.Contains(out.String(), regressed) || strings.Contains(out.String(), improved) || !strings.Contains(out.String(), voided) {
		t.Errorf("gain with more failures: code %d, output\n%s", code, out.String())
	}
}

func TestLoadResultsRefusesFailedChecks(t *testing.T) {
	dir := t.TempDir()
	a, _ := pairedRuns([]float64{1}, []float64{1})
	save := func(r *result) {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, r.ID+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	save(a[0])
	if _, err := loadResults(dir); err != nil {
		t.Fatalf("correct result refused: %v", err)
	}
	bad := *a[0]
	bad.ID, bad.Correct, bad.Problems = "bad", false, []string{"queue entry 0 replays to crash"}
	save(&bad)
	if _, err := loadResults(dir); err == nil {
		t.Error("result with failed output checks accepted")
	}
}

func TestAlternatingAndSameMachine(t *testing.T) {
	mk := func(id string, seed uint64, minute int) *result {
		return &result{ID: id, Seed: seed, Start: time.Unix(0, 0).Add(time.Duration(minute) * time.Minute), Machine: machine()}
	}
	// Parent first in the first pair, candidate first in the second.
	a := []*result{mk("a1", 1, 0), mk("a2", 2, 3)}
	b := []*result{mk("b1", 1, 1), mk("b2", 2, 2)}
	if err := alternating(a, b); err != nil {
		t.Errorf("alternating pairs rejected: %v", err)
	}
	if err := alternating(a, []*result{mk("b1", 1, 1)}); err == nil {
		t.Error("unequal run counts accepted")
	}
	if err := alternating([]*result{mk("a1", 1, 0), mk("a2", 2, 1)}, []*result{mk("b1", 1, 2), mk("b2", 2, 3)}); err == nil {
		t.Error("back-to-back parent runs accepted")
	}
	if err := alternating(a, []*result{mk("b1", 2, 1), mk("b2", 1, 2)}); err == nil {
		t.Error("pairs of different seeds accepted")
	}
	if err := sameMachine(append(a, b...)); err != nil {
		t.Errorf("same machine rejected: %v", err)
	}
	other := mk("b3", 3, 4)
	other.Machine.NumCPU++
	if err := sameMachine([]*result{a[0], other}); err == nil {
		t.Error("results from different machines accepted")
	}
}
