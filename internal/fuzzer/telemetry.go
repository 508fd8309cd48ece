package fuzzer

import (
	"github.com/bigmap/bigmap/internal/core"
	"github.com/bigmap/bigmap/internal/telemetry"
)

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
	stageDet       *telemetry.Histogram
	stageHavoc     *telemetry.Histogram
	stageSplice    *telemetry.Histogram
	stageCmplog    *telemetry.Histogram
	stageTrim      *telemetry.Histogram
	stageCalibrate *telemetry.Histogram
}

// newTelemetryHooks resolves the fuzzer's metric handles and instruments the
// coverage map's per-operation timings (map_<scheme>_*_ns). With a nil
// registry it returns the zero hooks and leaves the map bare.
func newTelemetryHooks(r *telemetry.Registry, cov core.Map) telemetryHooks {
	if r == nil {
		return telemetryHooks{}
	}
	if ins, ok := cov.(core.Instrumented); ok {
		ins.Instrument(telemetry.NewMapOps(r, cov.Scheme()))
	}
	return telemetryHooks{
		execs:      r.Counter("fuzzer_execs_total"),
		crashes:    r.Counter("fuzzer_crashes_total"),
		hangs:      r.Counter("fuzzer_hangs_total"),
		pathsFound: r.Counter("fuzzer_paths_found_total"),
		imports:    r.Counter("fuzzer_imports_total"),
		calibExecs: r.Counter("fuzzer_calib_execs_total"),

		helperExecs:  r.Counter("fuzzer_helper_execs_total"),
		helperExecNs: r.Histogram("fuzzer_helper_exec_ns"),

		queuePaths: r.Gauge("fuzzer_queue_paths"),
		edges:      r.Gauge("fuzzer_edges_discovered"),

		execNs:         r.Histogram("fuzzer_exec_ns"),
		stageDet:       r.Histogram("fuzzer_stage_det_ns"),
		stageHavoc:     r.Histogram("fuzzer_stage_havoc_ns"),
		stageSplice:    r.Histogram("fuzzer_stage_splice_ns"),
		stageCmplog:    r.Histogram("fuzzer_stage_cmplog_ns"),
		stageTrim:      r.Histogram("fuzzer_stage_trim_ns"),
		stageCalibrate: r.Histogram("fuzzer_stage_calibrate_ns"),
	}
}

// noteEnqueue refreshes the cheap liveness gauges after a queue add. Both
// reads are O(1) (queue length; the virgin map's running discovered count).
func (f *Fuzzer) noteEnqueue() {
	f.tel.pathsFound.Inc()
	f.tel.queuePaths.Set(int64(f.queue.Len()))
	f.tel.edges.Set(int64(f.virginAll.CountDiscovered()))
}
