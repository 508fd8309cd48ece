package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"github.com/bigmap/bigmap/internal/core"
	"github.com/bigmap/bigmap/internal/fuzzer"
)

// refSeconds is the run length the budgets in the workload table are sized
// for. A run of S seconds scales every campaign's exec or round budget by
// S/refSeconds, so the work a run does, and with it every count metric,
// depends only on the seed and S, never on how fast the machine happens to
// be.
const refSeconds = 20

// setupReps is how many times a trial sets its campaign up; only the last
// set-up is fuzzed, and setup_s is the median over all of them.
const setupReps = 5

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// trials is how many independent campaigns (batches for serve-hosted)
	// a run measures back to back. Where one campaign's coverage and speed
	// swing with its seed, several per run keep the run's mean steady.
	trials int
	run    runner
}

// runner measures one trial of a workload: a campaign, or a batch of hosted
// campaigns.
type runner interface {
	// budget describes the trial's budgets for the result metadata.
	budget() map[string]any
	// scaled returns the runner with its exec or round budget multiplied by
	// f (at least one exec or round).
	scaled(f float64) runner
	// run measures one trial from a trial seed; rec is nil when untraced.
	run(seed uint64, rec *recorder) (trial, error)
}

// The workloads; see README.md for why each one exists and for the traced
// breakdown showing each reaches the regime it is named for.
var workloads = []workload{
	{"afl-flat-8M", "flat 8M map: reset and classify+compare over 8 MB dominate every exec (Fig. 3 regime)",
		1, single{bench: "libpng", scale: 0.25, scheme: fuzzer.SchemeAFL, mapSize: core.MapSize8M, execs: 8000}},
	{"bigmap-steady", "BigMap 8M at saturated coverage: the per-exec pipeline with a static queue",
		1, single{bench: "libpng", scale: 0.05, scheme: fuzzer.SchemeBigMap, mapSize: core.MapSize8M, execs: 5000000}},
	{"bigmap-growth", "BigMap 8M while coverage climbs: queue culling dominates as the corpus grows past 1k entries",
		4, single{bench: "sqlite3", scale: 0.25, scheme: fuzzer.SchemeBigMap, mapSize: core.MapSize8M, execs: 150000}},
	{"campaign-corpusd", "2 instances syncing through corpusd over HTTP: fsynced pushes, pulls and checkpoints",
		2, corpusdCampaign{bench: "sqlite3", scale: 0.1, mapSize: core.MapSize2M, instances: 2, syncEvery: 2000, rounds: 100, checkpointEvery: 10}},
	{"serve-hosted", "8 hosted campaigns of 2 tenants on one worker: fair-share quanta, pairwise sync, checkpoints",
		5, hostedBatch{bench: "sqlite3", scale: 0.1, mapSize: core.MapSize2M, campaigns: 8, instances: 2, syncEvery: 5000, rounds: 8}},
}

// scale multiplies a budget by f, keeping at least one.
func scale[T ~int | ~uint64](n T, f float64) T {
	return max(1, T(math.Round(float64(n)*f)))
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// trial is the outcome of one measured trial.
type trial struct {
	setups    []float64 // seconds of each set-up the trial performed
	latencies []float64 // seconds from a campaign's start to its end
	execs     float64
	wall      float64 // seconds of fuzzing the execs took
	edges     float64
	lanes     float64 // fuzzing goroutines the trial ran at a time
	digest    string  // campaign state; a traced trial must match its untraced twin
	attempted int
	failed    int
	problems  []error // failed output checks
	layers    layers  // traced trials only
}

// subSeed derives the i-th seed from a seed: a run's trials, a batch's
// campaigns.
func subSeed(seed uint64, i int) uint64 { return seed*1_000_003 + uint64(i) + 1 }

// metricSpec names one published metric.
type metricSpec struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run, as a user of the fuzzer sees
// them.
var endToEnd = []metricSpec{
	{"execs_per_s", "1/s", "higher"},
	{"edges_at_budget", "count", "higher"},
	{"campaign_p50_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of a traced run. Busy times are shares: of lane
// time (wall time times fuzzing goroutines) for work each instance does, of
// wall time for work that stops the whole campaign. Layers a workload does
// not have read 0.
var perLayer = []metricSpec{
	{"trace.wall_s", "s", "lower"},
	{"telemetry.trace_overhead", "share", "lower"},
	{"executor.execute_share", "share", "lower"},
	{"executor.execute_n", "count", "higher"},
	{"core.reset_share", "share", "lower"},
	{"core.classify_compare_share", "share", "lower"},
	{"core.hash_share", "share", "lower"},
	{"core.hash_n", "count", "lower"},
	{"core.used_keys", "count", "lower"},
	{"fuzzer.step_n", "count", "higher"},
	{"fuzzer.schedule_share", "share", "lower"},
	{"fuzzer.havoc_share", "share", "lower"},
	{"fuzzer.splice_share", "share", "lower"},
	{"fuzzer.trim_share", "share", "lower"},
	{"fuzzer.stage_self_share", "share", "lower"},
	{"fuzzer.new_path_ratio", "ratio", "higher"},
	{"corpus.paths", "count", "higher"},
	{"corpus.favored", "count", "lower"},
	{"crash.buckets", "count", "higher"},
	{"parallel.round_n", "count", "higher"},
	{"parallel.unstaged_share", "share", "lower"},
	{"dist.push_share", "share", "lower"},
	{"dist.pull_share", "share", "lower"},
	{"dist.worker_self_share", "share", "lower"},
	{"dist.dedup_ratio", "ratio", "lower"},
	{"dist.import_ratio", "ratio", "higher"},
	{"dist.delta_words", "count", "lower"},
	{"corpusd.apply_share", "share", "lower"},
	{"corpusd.ledger_records", "count", "lower"},
	{"checkpoint.save_share", "share", "lower"},
	{"checkpoint.bytes", "bytes", "lower"},
	{"serve.submit_share", "share", "lower"},
	{"serve.queue_wait_share", "share", "lower"},
}

// metric is one published value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run measured, with the metadata needed to
// compare it against other runs.
type result struct {
	ID        string               `json:"id"`
	Workload  string               `json:"workload"`
	Seed      uint64               `json:"seed"`
	Trace     bool                 `json:"trace"`
	Seconds   float64              `json:"seconds"`
	Start     time.Time            `json:"start"`
	End       time.Time            `json:"end"`
	Commit    string               `json:"commit"`
	Machine   fingerprint          `json:"machine"`
	Budget    map[string]any       `json:"budget"`
	Trials    int                  `json:"trials"`
	Samples   map[string][]float64 `json:"samples"`
	Metrics   map[string]metric    `json:"metrics"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Problems  []string             `json:"problems,omitempty"`
}

// summary is the line printed last on standard output.
func (r *result) summary() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
}

// fingerprint identifies the machine a result was measured on; results from
// different fingerprints are never compared.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
}

func machine() fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// measure runs a workload's trials with budgets scaled to the run length. A
// traced run measures each trial twice, untraced then traced, and checks
// that the two leave the campaign in the same state.
func measure(w workload, seed uint64, seconds float64, traced bool) (*result, *recorder, error) {
	start := time.Now()
	r := w.run.scaled(seconds / refSeconds)
	res := &result{
		ID:       fmt.Sprintf("%s-seed%d-trace%v-%d", w.name, seed, traced, start.UnixNano()),
		Workload: w.name, Seed: seed, Trace: traced, Seconds: seconds, Start: start,
		Commit: commit(), Machine: machine(), Budget: r.budget(), Trials: w.trials,
		Samples: map[string][]float64{},
	}
	var rec *recorder
	if traced {
		rec = newRecorder(res.ID)
	}
	var plain, withTrace []trial
	var problems []error
	for i := 0; i < w.trials; i++ {
		// Collect the previous trial's garbage now rather than inside this
		// trial's timings, so no trial pays for another's heap.
		runtime.GC()
		u, err := r.run(subSeed(seed, i), nil)
		if err != nil {
			return nil, nil, fmt.Errorf("trial %d: %w", i, err)
		}
		plain = append(plain, u)
		problems = append(problems, u.problems...)
		if traced {
			runtime.GC()
			sp := rec.begin("trial")
			tu, err := r.run(subSeed(seed, i), rec)
			rec.end(sp)
			if err != nil {
				return nil, nil, fmt.Errorf("traced trial %d: %w", i, err)
			}
			if tu.digest != u.digest {
				problems = append(problems, fmt.Errorf("trial %d: traced campaign state differs from untraced", i))
			}
			withTrace = append(withTrace, tu)
			problems = append(problems, tu.problems...)
		}
	}
	res.End = time.Now()
	for _, u := range append(plain, withTrace...) {
		res.Attempted += u.attempted
		res.Failed += u.failed
	}
	for _, p := range problems {
		res.Problems = append(res.Problems, p.Error())
	}
	res.Correct = len(problems) == 0

	var values map[string]float64
	var specs []metricSpec
	if traced {
		var ratios []float64
		for i := range withTrace {
			ratios = append(ratios, withTrace[i].execsPerSecond()/plain[i].execsPerSecond())
		}
		res.Samples["traced_over_untraced_execs_per_s"] = ratios
		values, specs = layerMetrics(withTrace, 1-median(ratios)), perLayer
	} else {
		values, specs = endToEndMetrics(plain, res.Samples), endToEnd
	}
	res.Metrics = map[string]metric{}
	for _, s := range specs {
		res.Metrics[s.name] = metric{Value: values[s.name], Unit: s.unit}
	}
	return res, rec, nil
}

func (u trial) execsPerSecond() float64 {
	if u.wall == 0 {
		return 0
	}
	return u.execs / u.wall
}

// endToEndMetrics reduces untraced trials to the end-to-end metrics and
// records the samples behind each. Throughput is all executions over all
// fuzzing time. Coverage is the mean over the trials, the usual summary of
// repeated fuzzing trials: per-trial coverage is bimodal on targets with
// magic-value roadblocks (a trial either solves one or not), so a median
// flips between the modes while the mean moves smoothly. Times are medians.
func endToEndMetrics(us []trial, samples map[string][]float64) map[string]float64 {
	var execs, wall float64
	for _, u := range us {
		execs += u.execs
		wall += u.wall
		samples["execs_per_s"] = append(samples["execs_per_s"], u.execsPerSecond())
		samples["edges_at_budget"] = append(samples["edges_at_budget"], u.edges)
		samples["campaign_s"] = append(samples["campaign_s"], u.latencies...)
		samples["setup_s"] = append(samples["setup_s"], u.setups...)
	}
	return map[string]float64{
		"execs_per_s":     execs / wall,
		"edges_at_budget": mean(samples["edges_at_budget"]),
		"campaign_p50_s":  median(samples["campaign_s"]),
		"setup_s":         median(samples["setup_s"]),
		"peak_rss_mb":     peakRSSMB(),
	}
}

// layerMetrics reduces traced trials to the per-layer metrics. Busy times
// are summed over the trials before dividing, counts are medians per trial.
func layerMetrics(us []trial, overhead float64) map[string]float64 {
	sum := func(k string) float64 {
		var s float64
		for _, u := range us {
			s += u.layers[k]
		}
		return s
	}
	perUnit := func(k string) float64 {
		var v []float64
		for _, u := range us {
			v = append(v, u.layers[k])
		}
		return median(v)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var wall, lane float64
	for _, u := range us {
		wall += u.wall
		lane += u.lanes * u.wall
	}
	wall, lane = wall*1e9, lane*1e9 // the sums are in nanoseconds
	core := sum("reset_ns") + sum("cc_ns") + sum("hash_ns")
	stageWork := sum("exec_ns") - sum("sync_exec_ns") + core - sum("sync_core_ns")
	m := map[string]float64{
		"trace.wall_s":                wall / 1e9,
		"telemetry.trace_overhead":    overhead,
		"executor.execute_share":      ratio(sum("exec_ns"), lane),
		"executor.execute_n":          perUnit("exec_n"),
		"core.reset_share":            ratio(sum("reset_ns"), lane),
		"core.classify_compare_share": ratio(sum("cc_ns"), lane),
		"core.hash_share":             ratio(sum("hash_ns"), lane),
		"core.hash_n":                 perUnit("hash_n"),
		"core.used_keys":              perUnit("used_keys"),
		"fuzzer.step_n":               perUnit("step_n"),
		"fuzzer.havoc_share":          ratio(sum("havoc_ns"), lane),
		"fuzzer.splice_share":         ratio(sum("splice_ns"), lane),
		"fuzzer.trim_share":           ratio(sum("trim_ns"), lane),
		"fuzzer.stage_self_share":     ratio(sum("stages_ns")-stageWork, lane),
		"fuzzer.new_path_ratio":       ratio(sum("paths_found"), sum("execs")),
		"corpus.paths":                perUnit("paths"),
		"corpus.favored":              perUnit("favored"),
		"crash.buckets":               perUnit("crashes"),
		"parallel.round_n":            perUnit("round_n"),
		"dist.push_share":             ratio(sum("push_ns"), wall),
		"dist.pull_share":             ratio(sum("pull_ns"), wall),
		"dist.worker_self_share":      ratio(sum("dist_sync_ns")-sum("push_ns")-sum("pull_ns")-sum("sync_exec_ns")-sum("sync_core_ns"), wall),
		"dist.dedup_ratio":            ratio(sum("dups"), sum("pushed")),
		"dist.import_ratio":           ratio(sum("imports"), sum("pulled")),
		"dist.delta_words":            perUnit("delta_words"),
		"corpusd.apply_share":         ratio(sum("corpusd_ns"), wall),
		"corpusd.ledger_records":      perUnit("ledger_records"),
		"checkpoint.save_share":       ratio(sum("chk_ns"), wall),
		"checkpoint.bytes":            perUnit("chk_bytes"),
		"serve.submit_share":          ratio(sum("submit_ns"), wall),
		"serve.queue_wait_share":      ratio(sum("queue_wait_ns"), sum("campaign_ns")),
	}
	if sum("step_n") > 0 {
		m["fuzzer.schedule_share"] = ratio(sum("step_ns")-sum("stages_ns"), lane)
	}
	if rounds := sum("round_ns"); rounds > 0 {
		m["parallel.unstaged_share"] = 1 - ratio(sum("stages_ns"), us[0].lanes*rounds)
	}
	return m
}

func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}
