// Package executor runs test cases against an instrumented target, wiring
// the target's block-event stream through a coverage metric into a coverage
// map — the role AFL's instrumentation shim and shared-memory segment play.
//
// The executor is the persistent-mode analogue of the paper's setup (§V-A):
// the interpreter, metric and map are reused across executions with no
// process creation or reinitialization, so per-testcase cost is execution
// plus map operations, exactly the breakdown of Figure 3.
package executor

import (
	"errors"

	"github.com/bigmap/bigmap/internal/core"
	"github.com/bigmap/bigmap/internal/target"
)

// DefaultBudget is the default per-execution virtual cycle budget (the
// analogue of AFL's exec timeout).
const DefaultBudget = 1 << 22

// ErrNilDependency is returned when a required constructor argument is nil.
var ErrNilDependency = errors.New("executor: program, metric and map are required")

// Executor executes inputs against one program with one metric and one
// coverage map. Not safe for concurrent use; each fuzzing instance owns one.
type Executor struct {
	runner     target.Runner
	metric     core.Metric
	cov        core.Map
	budget     uint64
	costFactor int
	costSink   uint64
	tracer     mapTracer
}

// keyBufLen is the capacity of the tracer's coverage-key buffer. It must be
// at least the interpreter's trace ring size (one VisitBatch never overflows
// an empty buffer) and is sized so a typical execution flushes into the map
// once or twice.
const keyBufLen = 4096

// mapTracer adapts a Metric + Map pair to the target.BatchTracer interface.
// This is the hot path. The interpreter delivers visited blocks a ring at a
// time through VisitBatch; keys are derived and buffered, then flushed into
// the map through one AddBatch call when the buffer fills and once at the
// end of each execution — so the per-edge virtual Map.Add of the scalar
// pipeline disappears, while the recorded coverage is exactly Listing 1
// (AFL) or Listing 2 (BigMap) per edge event.
//
// When the metric is the common *core.EdgeMetric, key derivation goes
// through a concrete (inlinable) method call instead of the Metric
// interface — the second devirtualization in the loop. When the metric
// ignores call events (edge, N-gram), the tracer says so, and the
// interpreter skips the events and the ring flushes around them.
type mapTracer struct {
	metric    core.Metric
	edge      *core.EdgeMetric // non-nil fast path when metric is the edge metric
	callBlind bool             // the metric's EnterCall and LeaveCall are no-ops
	cov       core.Map
	keys      []uint32 // buffered coverage keys, flushed via cov.AddBatch
}

var _ target.CallBlindTracer = (*mapTracer)(nil)

// Visit handles the scalar path (kept for Tracer conformance and for any
// non-batching interpreter).
func (t *mapTracer) Visit(block uint32) {
	t.cov.Add(t.metric.Visit(block))
}

// VisitBatch derives one coverage key per visited block and buffers them.
// The interpreter's ring never exceeds the buffer capacity, so after a flush
// the whole batch always fits.
//
//bigmap:hotpath BatchTracer callback, runs once per trace-ring flush inside every execution
func (t *mapTracer) VisitBatch(blocks []uint32) {
	keys := t.keys
	if len(keys)+len(blocks) > cap(keys) {
		t.cov.AddBatch(keys)
		keys = keys[:0]
	}
	if t.edge != nil {
		for _, b := range blocks {
			keys = append(keys, t.edge.Visit(b)) //bigmap:alloc-ok never reallocates: the flush above guarantees the batch fits keyBufLen capacity
		}
	} else {
		for _, b := range blocks {
			keys = append(keys, t.metric.Visit(b)) //bigmap:alloc-ok never reallocates: the flush above guarantees the batch fits keyBufLen capacity
		}
	}
	t.keys = keys
}

// flush records any still-buffered keys into the map. Must run before the
// map is read; Execute calls it after every run.
func (t *mapTracer) flush() {
	if len(t.keys) > 0 {
		t.cov.AddBatch(t.keys)
		t.keys = t.keys[:0]
	}
}

func (t *mapTracer) EnterCall(site uint32) { t.metric.EnterCall(site) }
func (t *mapTracer) LeaveCall()            { t.metric.LeaveCall() }

// CallBlind reports whether the metric ignores call events.
func (t *mapTracer) CallBlind() bool { return t.callBlind }

// ignoresCalls reports whether m's coverage keys do not depend on call
// events: the edge and N-gram metrics, whose EnterCall and LeaveCall are
// no-ops. Every other metric gets the events.
func ignoresCalls(m core.Metric) bool {
	switch m.(type) {
	case *core.EdgeMetric, *core.NGramMetric:
		return true
	}
	return false
}

// New creates an executor running the clean interpreter. budget is the
// per-execution cycle budget; pass 0 for DefaultBudget.
func New(prog *target.Program, metric core.Metric, cov core.Map, budget uint64) (*Executor, error) {
	if prog == nil {
		return nil, ErrNilDependency
	}
	return NewWithRunner(target.NewInterp(prog), metric, cov, budget)
}

// NewWithRunner creates an executor driving an arbitrary target runner — the
// clean interpreter, a fault-injected wrapper, or anything else satisfying
// the Runner contract.
func NewWithRunner(runner target.Runner, metric core.Metric, cov core.Map, budget uint64) (*Executor, error) {
	if runner == nil || metric == nil || cov == nil {
		return nil, ErrNilDependency
	}
	if budget == 0 {
		budget = DefaultBudget
	}
	edge, _ := metric.(*core.EdgeMetric)
	return &Executor{
		runner: runner,
		metric: metric,
		cov:    cov,
		budget: budget,
		tracer: mapTracer{
			metric:    metric,
			edge:      edge,
			callBlind: ignoresCalls(metric),
			cov:       cov,
			keys:      make([]uint32, 0, keyBufLen),
		},
	}, nil
}

// Map returns the coverage map the executor records into.
func (e *Executor) Map() core.Map { return e.cov }

// Metric returns the coverage metric in use.
func (e *Executor) Metric() core.Metric { return e.metric }

// Program returns the target program.
func (e *Executor) Program() *target.Program { return e.runner.Program() }

// Runner returns the target runner (for fault-state checkpointing).
func (e *Executor) Runner() target.Runner { return e.runner }

// Budget returns the per-execution cycle budget.
func (e *Executor) Budget() uint64 { return e.budget }

// SetCostFactor calibrates simulated execution cost: after each run the
// executor performs costFactor units of CPU work per virtual cycle the
// target consumed. The synthetic interpreter is far cheaper per basic block
// than a real instrumented binary, which would make map operations look
// disproportionately expensive at AFL's native 64kB size; a non-zero cost
// factor restores the paper's regime, where target execution dominates on
// small maps (Figure 3, 64kB bars) and the map operations only take over as
// the map grows. Zero (the default) disables the simulation.
func (e *Executor) SetCostFactor(factor int) {
	if factor < 0 {
		factor = 0
	}
	e.costFactor = factor
}

// Execute runs one input, recording coverage into the map. The caller is
// responsible for resetting the map beforehand and classifying/comparing it
// afterwards — the fuzzer owns that pipeline so it can time each phase
// separately (Figure 3) and choose merged or split classify+compare (§IV-E).
//
//bigmap:hotpath the per-exec loop: one call per fuzzing execution
func (e *Executor) Execute(input []byte) target.Result {
	e.metric.Begin()
	e.tracer.keys = e.tracer.keys[:0] // drop any keys a panicking prior run left behind
	res := e.runner.Run(input, &e.tracer, e.budget)
	e.tracer.flush()
	if e.costFactor > 0 {
		e.simulateWork(res.Cycles * uint64(e.costFactor))
	}
	return res
}

// simulateWork burns CPU deterministically, standing in for the native
// instructions a real target would execute between coverage updates. The
// accumulated sink prevents the loop from being optimized away.
func (e *Executor) simulateWork(units uint64) {
	sink := e.costSink
	for i := uint64(0); i < units; i++ {
		sink ^= sink<<13 ^ i
		sink ^= sink >> 7
		sink ^= sink << 17
	}
	e.costSink = sink
}
