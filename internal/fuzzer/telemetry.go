package fuzzer

import (
	"github.com/bigmap/bigmap/internal/core"
	"github.com/bigmap/bigmap/internal/telemetry"
)

// Histograms the fuzzer times its executions into.
const (
	// ExecMetric times every counted execution on the fuzzer goroutine:
	// the target run, or the replay of a run the havoc helper recorded.
	ExecMetric = "fuzzer_exec_ns"
	// HelperExecMetric times the havoc helper's recording runs.
	HelperExecMetric = "fuzzer_helper_exec_ns"
)

// MapOp is one coverage-map operation of the per-exec cost split that the
// paper's Figure 3 draws. The fuzzer times every call it makes to one into
// the histogram MapOpMetric names.
type MapOp int

// The timed map operations.
const (
	MapReset MapOp = iota
	MapClassify
	MapCompare
	MapClassifyCompare
	MapHash
	numMapOps
)

var mapOpNames = [numMapOps]string{"reset", "classify", "compare", "classify_compare", "hash"}

// MapOpMetric names the histogram that times op on a map of the given
// scheme: map_<scheme>_<op>_ns. Parallel instances of one scheme share it.
func MapOpMetric(scheme Scheme, op MapOp) string {
	return "map_" + string(scheme) + "_" + mapOpNames[op] + "_ns"
}

// telemetryHooks holds the instance's pre-resolved metric handles. Handles
// are looked up once at construction so the fuzzing loop records through
// plain pointers — lock-free, allocation-free atomic updates. The zero value
// (all nil, from a nil registry) is the disabled state: every record site
// reduces to a nil check and no clock is ever read.
//
// Parallel campaign instances share one registry, so these metrics aggregate
// across instances; per-instance breakdowns live in package parallel.
type telemetryHooks struct {
	execs      *telemetry.Counter
	crashes    *telemetry.Counter
	hangs      *telemetry.Counter
	pathsFound *telemetry.Counter
	imports    *telemetry.Counter
	calibExecs *telemetry.Counter
	// The havoc helper's runs (havoc.go): every run it executes, and its
	// time. A run it recorded is counted again, in execs and execNs, when
	// the fuzzer goroutine replays it.
	helperExecs  *telemetry.Counter
	helperExecNs *telemetry.Histogram

	queuePaths *telemetry.Gauge
	edges      *telemetry.Gauge

	execNs         *telemetry.Histogram
	mapOps         [numMapOps]*telemetry.Histogram // indexed by MapOp
	stageDet       *telemetry.Histogram
	stageHavoc     *telemetry.Histogram
	stageSplice    *telemetry.Histogram
	stageCmplog    *telemetry.Histogram
	stageTrim      *telemetry.Histogram
	stageCalibrate *telemetry.Histogram
}

// newTelemetryHooks resolves the fuzzer's metric handles, the coverage
// map's per-operation timings (MapOpMetric) included. With a nil registry it
// returns the zero hooks.
func newTelemetryHooks(r *telemetry.Registry, scheme Scheme) telemetryHooks {
	if r == nil {
		return telemetryHooks{}
	}
	h := telemetryHooks{
		execs:      r.Counter("fuzzer_execs_total"),
		crashes:    r.Counter("fuzzer_crashes_total"),
		hangs:      r.Counter("fuzzer_hangs_total"),
		pathsFound: r.Counter("fuzzer_paths_found_total"),
		imports:    r.Counter("fuzzer_imports_total"),
		calibExecs: r.Counter("fuzzer_calib_execs_total"),

		helperExecs:  r.Counter("fuzzer_helper_execs_total"),
		helperExecNs: r.Histogram(HelperExecMetric),

		queuePaths: r.Gauge("fuzzer_queue_paths"),
		edges:      r.Gauge("fuzzer_edges_discovered"),

		execNs:         r.Histogram(ExecMetric),
		stageDet:       r.Histogram("fuzzer_stage_det_ns"),
		stageHavoc:     r.Histogram("fuzzer_stage_havoc_ns"),
		stageSplice:    r.Histogram("fuzzer_stage_splice_ns"),
		stageCmplog:    r.Histogram("fuzzer_stage_cmplog_ns"),
		stageTrim:      r.Histogram("fuzzer_stage_trim_ns"),
		stageCalibrate: r.Histogram("fuzzer_stage_calibrate_ns"),
	}
	for op := range h.mapOps {
		h.mapOps[op] = r.Histogram(MapOpMetric(scheme, MapOp(op)))
	}
	return h
}

// noteEnqueue refreshes the cheap liveness gauges after a queue add. Both
// reads are O(1) (queue length; the virgin map's running discovered count).
func (f *Fuzzer) noteEnqueue() {
	f.tel.pathsFound.Inc()
	f.tel.queuePaths.Set(int64(f.queue.Len()))
	f.tel.edges.Set(int64(f.virginAll.CountDiscovered()))
}

// The coverage-map operations of the per-exec pipeline. The fuzzer calls
// each through these, so every call is timed into its MapOpMetric
// histogram exactly once; with telemetry off a call costs two nil checks.

func (f *Fuzzer) resetMap() {
	t0 := f.tel.mapOps[MapReset].Start()
	f.cov.Reset()
	f.tel.mapOps[MapReset].Done(t0)
}

func (f *Fuzzer) classify() {
	t0 := f.tel.mapOps[MapClassify].Start()
	f.cov.Classify()
	f.tel.mapOps[MapClassify].Done(t0)
}

func (f *Fuzzer) compare(virgin *core.Virgin) core.Verdict {
	t0 := f.tel.mapOps[MapCompare].Start()
	v := f.cov.CompareWith(virgin)
	f.tel.mapOps[MapCompare].Done(t0)
	return v
}

func (f *Fuzzer) classifyCompare(virgin *core.Virgin) core.Verdict {
	t0 := f.tel.mapOps[MapClassifyCompare].Start()
	v := f.cov.ClassifyAndCompare(virgin)
	f.tel.mapOps[MapClassifyCompare].Done(t0)
	return v
}

func (f *Fuzzer) hash() uint64 {
	t0 := f.tel.mapOps[MapHash].Start()
	h := f.cov.Hash()
	f.tel.mapOps[MapHash].Done(t0)
	return h
}
