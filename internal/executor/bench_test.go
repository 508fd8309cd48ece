package executor

import (
	"fmt"
	"slices"
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

// BenchmarkExecLoopSelective measures the selective-tracing steady state:
// the same pipeline as BenchmarkExecLoop, but the read-only MaybeNew
// prefilter gates the classify+compare traversal. The warm-up absorbs the
// input's coverage into virgin, so every measured iteration is the
// non-discovering common case — the filter skips the classify-store and
// virgin-update work entirely.
func BenchmarkExecLoopSelective(b *testing.B) {
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
			m.Reset()
			e.Execute(input)
			m.ClassifyAndCompare(virgin)
			label := fmt.Sprintf("%s/%s", scheme, sizeLabel(size))
			b.Run(label, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					m.Reset()
					res := e.Execute(input)
					if res.Status != target.StatusOK {
						b.Fatalf("status %v", res.Status)
					}
					if m.MaybeNew(virgin) {
						m.ClassifyAndCompare(virgin)
					}
				}
			})
		}
	}
}

// BenchmarkExecLoopBatched measures ExecuteBatch in its selective steady
// state: batches of inputs whose coverage virgin has already absorbed, so the
// whole batch rides the filter's skip path through one pipeline call.
func BenchmarkExecLoopBatched(b *testing.B) {
	const batchSize = 32
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
	inputs := make([][]byte, batchSize)
	for n := range inputs {
		in := make([]byte, 32)
		for i := range in {
			in[i] = byte(i*7 + n)
		}
		inputs[n] = in
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
			for _, in := range inputs {
				m.Reset()
				e.Execute(in)
				m.ClassifyAndCompare(virgin)
			}
			visit := func(i int, res target.Result, verdict core.Verdict, skipped bool) {
				if res.Status != target.StatusOK {
					b.Fatalf("status %v", res.Status)
				}
			}
			label := fmt.Sprintf("%s/%s", scheme, sizeLabel(size))
			b.Run(label, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i += batchSize {
					e.ExecuteBatch(inputs, virgin, true, visit)
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

// TestExecLoopZeroAllocsSelective extends the 0 allocs/op guard to the
// selective pipeline and to ExecuteBatch: neither the prefilter nor the
// batched loop may allocate in steady state.
func TestExecLoopZeroAllocsSelective(t *testing.T) {
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

	m.Reset()
	e.Execute(input)
	m.ClassifyAndCompare(virgin)

	allocs := testing.AllocsPerRun(50, func() {
		m.Reset()
		e.Execute(input)
		if m.MaybeNew(virgin) {
			m.ClassifyAndCompare(virgin)
		}
	})
	if allocs != 0 {
		t.Errorf("selective exec loop allocates %.2f per exec, want 0", allocs)
	}

	inputs := [][]byte{input, input, input, input}
	visit := func(i int, res target.Result, verdict core.Verdict, skipped bool) {
		if !skipped {
			t.Error("warm steady-state batch execution was not skipped")
		}
	}
	batchAllocs := testing.AllocsPerRun(50, func() {
		e.ExecuteBatch(inputs, virgin, true, visit)
	})
	if batchAllocs != 0 {
		t.Errorf("ExecuteBatch allocates %.2f per batch, want 0", batchAllocs)
	}
}

// TestExecuteBatchMatchesSequential is the executor-level soundness pin for
// selective batching: the same input stream through (a) the classic
// always-traced sequential pipeline and (b) ExecuteBatch with the filter on
// must produce identical virgin state, identical verdicts for every unskipped
// input, and skips exactly where the traced pipeline said VerdictNone.
func TestExecuteBatchMatchesSequential(t *testing.T) {
	prog := testProgram(t)
	const size = core.MapSize64K

	for _, scheme := range []string{"afl", "bigmap"} {
		newMap := func() core.Map {
			var m core.Map
			var err error
			if scheme == "afl" {
				m, err = core.NewAFLMap(size)
			} else {
				m, err = core.NewBigMap(size)
			}
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		traced := newMap()
		metricT, _ := core.NewEdgeMetric(size)
		et, err := New(prog, metricT, traced, 0)
		if err != nil {
			t.Fatal(err)
		}
		selective := newMap()
		metricS, _ := core.NewEdgeMetric(size)
		es, err := New(prog, metricS, selective, 0)
		if err != nil {
			t.Fatal(err)
		}
		vt, vs := traced.NewVirgin(), selective.NewVirgin()

		inputs := make([][]byte, 64)
		for n := range inputs {
			in := make([]byte, 32)
			for i := range in {
				in[i] = byte(n*13 + i*7)
			}
			inputs[n] = in
		}

		wantVerdicts := make([]core.Verdict, len(inputs))
		decided := make([]bool, len(inputs))
		for i, in := range inputs {
			traced.Reset()
			res := et.Execute(in)
			if res.Status != target.StatusOK {
				continue // non-OK traces belong to crash/hang virgins, not vt
			}
			decided[i] = true
			wantVerdicts[i] = traced.ClassifyAndCompare(vt)
		}

		skips := 0
		es.ExecuteBatch(inputs, vs, true, func(i int, res target.Result, verdict core.Verdict, skipped bool) {
			if res.Status != target.StatusOK {
				if decided[i] {
					t.Fatalf("%s input %d: status diverged between traced and batch runs", scheme, i)
				}
				if skipped || verdict != core.VerdictNone {
					t.Fatalf("%s input %d: non-OK execution must arrive undecided (skipped=%v verdict=%v)", scheme, i, skipped, verdict)
				}
				return
			}
			if !decided[i] {
				t.Fatalf("%s input %d: status diverged between traced and batch runs", scheme, i)
			}
			if skipped {
				skips++
				if wantVerdicts[i] != core.VerdictNone {
					t.Fatalf("%s input %d: filter skipped a %v execution", scheme, i, wantVerdicts[i])
				}
				return
			}
			if verdict != wantVerdicts[i] {
				t.Fatalf("%s input %d: batch verdict %v, traced %v", scheme, i, verdict, wantVerdicts[i])
			}
			if verdict == core.VerdictNone {
				t.Fatalf("%s input %d: filter passed a VerdictNone execution (filter must be exact)", scheme, i)
			}
		})
		if skips == 0 {
			t.Fatalf("%s: no executions were skipped; the steady state never arrived", scheme)
		}
		if !slices.Equal(vt.Words(), vs.Words()) {
			t.Fatalf("%s: virgin state diverged between traced and selective batch", scheme)
		}
		if vt.CountDiscovered() != vs.CountDiscovered() {
			t.Fatalf("%s: discovered %d vs %d", scheme, vt.CountDiscovered(), vs.CountDiscovered())
		}
	}
}

// TestBatchedTracerMatchesScalarCoverage replays the same inputs through the
// batched executor pipeline and a hand-rolled scalar tracer and requires
// identical coverage maps — the executor-level differential check.
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

// scalarTracer is the pre-batching pipeline: one virtual Add per edge event.
type scalarTracer struct {
	metric core.Metric
	cov    core.Map
}

func (t *scalarTracer) Visit(block uint32) { t.cov.Add(t.metric.Visit(block)) }
func (t *scalarTracer) EnterCall(s uint32) { t.metric.EnterCall(s) }
func (t *scalarTracer) LeaveCall()         { t.metric.LeaveCall() }
