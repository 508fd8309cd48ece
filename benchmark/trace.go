package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"github.com/bigmap/bigmap/internal/dist"
	"github.com/bigmap/bigmap/internal/telemetry"
)

// maxSpans bounds the spans kept in memory; past it spans are still summed
// but no longer stored.
const maxSpans = 1 << 20

// span is one recorded interval of a traced run: a benchmark-side boundary
// around a call into one layer of the program.
type span struct {
	Run    string `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a top-level span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run started
	End    int64  `json:"end_ns"`
}

// recorder keeps the spans of one run in memory and sums their durations by
// name. Spans nest by call order, so a recorder belongs to the goroutine
// that drives the workload. A nil recorder records nothing and reads no
// clock: untraced runs pass nil and pay one nil check per boundary.
type recorder struct {
	run    string
	t0     time.Time
	spans  []span
	nextID int
	open   []int // ids of open spans, innermost last
	total  map[string]time.Duration
}

// spanRef is an open span, returned by begin and closed by end.
type spanRef struct {
	name  string
	id    int
	start time.Time
}

func newRecorder(run string) *recorder {
	return &recorder{run: run, t0: time.Now(), total: map[string]time.Duration{}}
}

// begin opens a span.
func (r *recorder) begin(name string) spanRef {
	if r == nil {
		return spanRef{}
	}
	r.nextID++
	r.open = append(r.open, r.nextID)
	return spanRef{name: name, id: r.nextID, start: time.Now()}
}

// end closes a span opened by begin.
func (r *recorder) end(s spanRef) {
	if r == nil {
		return
	}
	end := time.Now()
	r.open = r.open[:len(r.open)-1]
	r.store(s.id, s.name, s.start, end)
}

// add records an interval measured elsewhere as a child of the innermost
// open span.
func (r *recorder) add(name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.nextID++
	r.store(r.nextID, name, start, end)
}

func (r *recorder) store(id int, name string, start, end time.Time) {
	r.total[name] += end.Sub(start)
	if len(r.spans) >= maxSpans {
		return
	}
	parent := 0
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	r.spans = append(r.spans, span{
		Run: r.run, ID: id, Parent: parent, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(),
	})
}

// mark captures the span totals so far, for since.
func (r *recorder) mark() map[string]time.Duration {
	if r == nil {
		return nil
	}
	m := make(map[string]time.Duration, len(r.total))
	for k, v := range r.total {
		m[k] = v
	}
	return m
}

// since returns the nanoseconds spent in spans of the given name after mark.
func (r *recorder) since(mark map[string]time.Duration, name string) float64 {
	if r == nil {
		return 0
	}
	return float64((r.total[name] - mark[name]).Nanoseconds())
}

// write saves the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// delta is the change of a telemetry registry between two snapshots.
type delta struct{ a, b telemetry.Snapshot }

// ns returns the summed nanoseconds recorded into the named histograms.
func (d delta) ns(names ...string) float64 {
	var sum float64
	for _, n := range names {
		sum += float64(d.b.Histograms[n].Sum) - float64(d.a.Histograms[n].Sum)
	}
	return sum
}

// n returns the number of observations recorded into the named histogram.
func (d delta) n(name string) float64 {
	return float64(d.b.Histograms[name].Count) - float64(d.a.Histograms[name].Count)
}

// counter returns the increase of the named counter.
func (d delta) counter(name string) float64 {
	return float64(d.b.Counters[name]) - float64(d.a.Counters[name])
}

// stageHistograms are the fuzzer's per-stage timings; every execution of a
// fuzzing round happens inside one of them.
var stageHistograms = []string{
	"fuzzer_stage_det_ns", "fuzzer_stage_havoc_ns", "fuzzer_stage_splice_ns",
	"fuzzer_stage_cmplog_ns", "fuzzer_stage_trim_ns", "fuzzer_stage_calibrate_ns",
}

// coreHistograms returns the coverage-map operation timings of a scheme.
func coreHistograms(scheme string) []string {
	p := "map_" + scheme + "_"
	return []string{p + "reset_ns", p + "classify_ns", p + "compare_ns", p + "classify_compare_ns", p + "maybe_new_ns", p + "hash_ns"}
}

// layers holds one unit's raw per-layer sums (keys ending in _ns, _n or a
// plain count) and end-state values; layerMetrics turns them into the
// published per-layer metrics.
type layers map[string]float64

// addFuzzer adds the fuzzer, executor and coverage-map sums of one registry
// delta.
func (l layers) addFuzzer(d delta, scheme string) {
	p := "map_" + scheme + "_"
	l["exec_ns"] += d.ns("fuzzer_exec_ns")
	l["exec_n"] += d.n("fuzzer_exec_ns")
	l["reset_ns"] += d.ns(p + "reset_ns")
	l["cc_ns"] += d.ns(p+"classify_ns", p+"compare_ns", p+"classify_compare_ns", p+"maybe_new_ns")
	l["hash_ns"] += d.ns(p + "hash_ns")
	l["hash_n"] += d.n(p + "hash_ns")
	l["havoc_ns"] += d.ns("fuzzer_stage_havoc_ns")
	l["splice_ns"] += d.ns("fuzzer_stage_splice_ns")
	l["trim_ns"] += d.ns("fuzzer_stage_trim_ns")
	l["stages_ns"] += d.ns(stageHistograms...)
	l["paths_found"] += d.counter("fuzzer_paths_found_total")
	l["execs"] += d.counter("fuzzer_execs_total")
	l["imports"] += d.counter("fuzzer_imports_total")
	l["dist_sync_ns"] += d.ns("dist_sync_ns")
}

// syncer wraps the dist.Syncer a campaign exchanges through. It always
// counts operations and failures; with a recorder it also times every push
// and pull as a span and snapshots the campaign registry when a round's sync
// phase begins, so the executions imports re-run can be told apart from
// those of the fuzzing stages.
type syncer struct {
	inner dist.Syncer
	rec   *recorder
	reg   *telemetry.Registry

	attempted, failed                int
	pushed, dups, pulled, deltaWords int

	syncStart *telemetry.Snapshot // registry at the first push of the current round
}

func (s *syncer) Join(worker string) (dist.JoinInfo, error) {
	s.attempted++
	info, err := s.inner.Join(worker)
	if err != nil {
		s.failed++
	}
	return info, err
}

func (s *syncer) Push(worker string, b dist.Batch) (dist.Receipt, error) {
	if s.rec != nil && s.syncStart == nil {
		snap := s.reg.Snapshot()
		s.syncStart = &snap
	}
	s.attempted++
	sp := s.rec.begin("dist.push")
	r, err := s.inner.Push(worker, b)
	s.rec.end(sp)
	if err != nil {
		s.failed++
		return r, err
	}
	s.pushed += len(b.Inputs)
	s.dups += r.DupInputs
	s.deltaWords += r.DeltaWords
	return r, nil
}

func (s *syncer) Pull(worker string) ([]dist.Pulled, error) {
	s.attempted++
	sp := s.rec.begin("dist.pull")
	p, err := s.inner.Pull(worker)
	s.rec.end(sp)
	if err != nil {
		s.failed++
		return p, err
	}
	s.pulled += len(p)
	return p, nil
}

func (s *syncer) Stats() (dist.Stats, error) { return s.inner.Stats() }

// endRound closes a round's sync phase: the executor and map time recorded
// since the round's first push belongs to import re-executions.
func (s *syncer) endRound(l layers, scheme string) {
	if s.syncStart == nil {
		return
	}
	d := delta{*s.syncStart, s.reg.Snapshot()}
	l["sync_exec_ns"] += d.ns("fuzzer_exec_ns")
	l["sync_core_ns"] += d.ns(coreHistograms(scheme)...)
	s.syncStart = nil
}
