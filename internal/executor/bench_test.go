package executor

import (
	"fmt"
	"testing"

	"github.com/bigmap/bigmap/internal/core"
	"github.com/bigmap/bigmap/internal/target"
)

// BenchmarkExecLoop measures the full per-testcase pipeline (reset, execute
// with batched tracing, merged classify+compare) per scheme and map size —
// the executor's steady state. The acceptance bar for the batched pipeline
// is 0 allocs/op: every buffer (interpreter ring, tracer key buffer, map
// regions) is preallocated and reused.
func BenchmarkExecLoop(b *testing.B) {
	prog, err := target.Generate(target.GenSpec{
		Name:           "bench",
		Seed:           5,
		NumFuncs:       6,
		BlocksPerFunc:  24,
		InputLen:       32,
		BranchFraction: 0.6,
		Loops:          2,
		LoopMax:        8,
	})
	if err != nil {
		b.Fatal(err)
	}
	input := make([]byte, 32)
	for i := range input {
		input[i] = byte(i * 7)
	}
	for _, scheme := range []string{"afl", "bigmap"} {
		for _, size := range []int{core.MapSize64K, core.MapSize8M} {
			var m core.Map
			if scheme == "afl" {
				m, err = core.NewAFLMap(size)
			} else {
				m, err = core.NewBigMap(size)
			}
			if err != nil {
				b.Fatal(err)
			}
			metric, err := core.NewEdgeMetric(size)
			if err != nil {
				b.Fatal(err)
			}
			e, err := New(prog, metric, m, 0)
			if err != nil {
				b.Fatal(err)
			}
			virgin := m.NewVirgin()
			label := fmt.Sprintf("%s/%s", scheme, sizeLabel(size))
			b.Run(label, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					m.Reset()
					res := e.Execute(input)
					if res.Status != target.StatusOK {
						b.Fatalf("status %v", res.Status)
					}
					m.ClassifyAndCompare(virgin)
				}
			})
		}
	}
}

func sizeLabel(size int) string {
	if size >= 1<<20 {
		return fmt.Sprintf("%dM", size>>20)
	}
	return fmt.Sprintf("%dk", size>>10)
}

// TestExecLoopZeroAllocs is the regression test behind the benchmark's
// 0 allocs/op claim, so it fails in plain `go test` runs and not only when
// someone reads benchmark output.
func TestExecLoopZeroAllocs(t *testing.T) {
	m, err := core.NewBigMap(core.MapSize8M)
	if err != nil {
		t.Fatal(err)
	}
	metric, err := core.NewEdgeMetric(core.MapSize8M)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := target.Generate(target.GenSpec{
		Name:           "allocs",
		Seed:           9,
		NumFuncs:       4,
		BlocksPerFunc:  16,
		InputLen:       32,
		BranchFraction: 0.5,
		Loops:          1,
		LoopMax:        4,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(prog, metric, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	virgin := m.NewVirgin()
	input := make([]byte, 32)

	// Warm: discover all slots this input touches and absorb them into
	// virgin so the steady state has no slot-assignment appends left.
	m.Reset()
	e.Execute(input)
	m.ClassifyAndCompare(virgin)

	allocs := testing.AllocsPerRun(50, func() {
		m.Reset()
		e.Execute(input)
		m.ClassifyAndCompare(virgin)
	})
	if allocs != 0 {
		t.Errorf("exec loop allocates %.2f per exec, want 0", allocs)
	}
}

// TestBatchedTracerMatchesScalarCoverage replays the same inputs through the
// batched, call-blind executor pipeline and a hand-rolled tracer that adds
// one key at a time and takes every call event, and requires identical
// coverage maps — the executor-level differential check.
func TestBatchedTracerMatchesScalarCoverage(t *testing.T) {
	prog := testProgram(t)
	size := core.MapSize64K

	batched, _ := core.NewBigMap(size)
	metricB, _ := core.NewEdgeMetric(size)
	e, err := New(prog, metricB, batched, 0)
	if err != nil {
		t.Fatal(err)
	}

	scalar, _ := core.NewBigMap(size)
	metricS, _ := core.NewEdgeMetric(size)
	interp := target.NewInterp(prog)
	st := scalarTracer{metric: metricS, cov: scalar}

	for trial := 0; trial < 50; trial++ {
		input := make([]byte, 32)
		for i := range input {
			input[i] = byte(trial*31 + i)
		}
		batched.Reset()
		scalar.Reset()
		e.Execute(input)
		metricS.Begin()
		interp.Run(input, &st, 0)

		if batched.Hash() != scalar.Hash() {
			t.Fatalf("trial %d: coverage diverged between batched and scalar tracing", trial)
		}
		if batched.UsedKeys() != scalar.UsedKeys() {
			t.Fatalf("trial %d: used keys %d vs %d", trial, batched.UsedKeys(), scalar.UsedKeys())
		}
	}
}

// scalarTracer is the reference pipeline: one virtual Map.Add per edge
// event, with every call event relayed to the metric.
type scalarTracer struct {
	metric core.Metric
	cov    core.Map
}

func (t *scalarTracer) VisitBatch(blocks []uint32) {
	for _, b := range blocks {
		t.cov.Add(t.metric.Visit(b))
	}
}
func (t *scalarTracer) EnterCall(s uint32) { t.metric.EnterCall(s) }
func (t *scalarTracer) LeaveCall()         { t.metric.LeaveCall() }
func (t *scalarTracer) CallBlind() bool    { return false }
