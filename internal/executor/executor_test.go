package executor

import (
	"errors"
	"testing"

	"github.com/bigmap/bigmap/internal/core"
	"github.com/bigmap/bigmap/internal/rng"
	"github.com/bigmap/bigmap/internal/target"
)

func testProgram(t *testing.T) *target.Program {
	t.Helper()
	prog, err := target.Generate(target.GenSpec{
		Name:           "exec",
		Seed:           3,
		NumFuncs:       4,
		BlocksPerFunc:  12,
		InputLen:       32,
		BranchFraction: 0.6,
		Loops:          2,
		LoopMax:        8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func newExec(t *testing.T, m core.Map) *Executor {
	t.Helper()
	metric, err := core.NewEdgeMetric(m.Size())
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(testProgram(t), metric, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewValidatesArgs(t *testing.T) {
	m, _ := core.NewAFLMap(core.MapSize64K)
	metric, _ := core.NewEdgeMetric(core.MapSize64K)
	if _, err := New(nil, metric, m, 0); !errors.Is(err, ErrNilDependency) {
		t.Errorf("nil program: err = %v", err)
	}
	if _, err := New(testProgram(t), nil, m, 0); !errors.Is(err, ErrNilDependency) {
		t.Errorf("nil metric: err = %v", err)
	}
	if _, err := New(testProgram(t), metric, nil, 0); !errors.Is(err, ErrNilDependency) {
		t.Errorf("nil map: err = %v", err)
	}
}

func TestExecuteRecordsCoverage(t *testing.T) {
	m, _ := core.NewAFLMap(core.MapSize64K)
	e := newExec(t, m)
	m.Reset()
	res := e.Execute(make([]byte, 32))
	if res.Status != target.StatusOK {
		t.Fatalf("status %v", res.Status)
	}
	if m.CountNonZero() == 0 {
		t.Error("no coverage recorded")
	}
}

func TestExecuteDeterministicAcrossSchemes(t *testing.T) {
	// The same input must touch the same number of distinct edges and
	// yield the same verdict sequence under both map schemes.
	afl, _ := core.NewAFLMap(core.MapSize64K)
	big, _ := core.NewBigMap(core.MapSize64K)
	ea := newExec(t, afl)
	eb := newExec(t, big)
	va := afl.NewVirgin()
	vb := big.NewVirgin()

	src := rng.New(21)
	for i := 0; i < 100; i++ {
		input := make([]byte, 32)
		src.Bytes(input)

		afl.Reset()
		ra := ea.Execute(input)
		verdictA := afl.ClassifyAndCompare(va)

		big.Reset()
		rb := eb.Execute(input)
		verdictB := big.ClassifyAndCompare(vb)

		if ra.Status != rb.Status {
			t.Fatalf("input %d: status %v vs %v", i, ra.Status, rb.Status)
		}
		if verdictA != verdictB {
			t.Fatalf("input %d: verdict %v vs %v", i, verdictA, verdictB)
		}
		if afl.CountNonZero() != big.CountNonZero() {
			t.Fatalf("input %d: edges %d vs %d", i, afl.CountNonZero(), big.CountNonZero())
		}
	}
	if va.CountDiscovered() != vb.CountDiscovered() {
		t.Errorf("discovered totals diverged: %d vs %d", va.CountDiscovered(), vb.CountDiscovered())
	}
}

func TestExecuteResetBetweenRunsMatters(t *testing.T) {
	m, _ := core.NewBigMap(core.MapSize64K)
	e := newExec(t, m)

	m.Reset()
	e.Execute(make([]byte, 32))
	first := m.CountNonZero()

	// Without a reset, counts accumulate.
	e.Execute(make([]byte, 32))
	if m.CountNonZero() < first {
		t.Error("coverage shrank without reset")
	}

	m.Reset()
	e.Execute(make([]byte, 32))
	if got := m.CountNonZero(); got != first {
		t.Errorf("after reset, edges = %d, want %d (deterministic target)", got, first)
	}
}

func TestExecutorAccessors(t *testing.T) {
	m, _ := core.NewAFLMap(core.MapSize64K)
	e := newExec(t, m)
	if e.Map() != core.Map(m) {
		t.Error("Map accessor wrong")
	}
	if e.Metric().Name() != "edge" {
		t.Error("Metric accessor wrong")
	}
	if e.Program().Name != "exec" {
		t.Error("Program accessor wrong")
	}
	if e.Budget() != DefaultBudget {
		t.Errorf("Budget = %d, want default", e.Budget())
	}
}

func TestExecuteWithNGramMetric(t *testing.T) {
	m, _ := core.NewBigMap(core.MapSize64K)
	metric, err := core.NewNGramMetric(core.MapSize64K, 3)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(testProgram(t), metric, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.Reset()
	if res := e.Execute(make([]byte, 32)); res.Status != target.StatusOK {
		t.Fatalf("status %v", res.Status)
	}
	nEdge := m.CountNonZero()
	if nEdge == 0 {
		t.Fatal("ngram metric recorded nothing")
	}
}

// TestExecuteTotalsCycles: the executor's cycle total, which a fuzzer
// charges to its virtual clock, is the sum of Result.Cycles over every run,
// hangs cut at the budget included.
func TestExecuteTotalsCycles(t *testing.T) {
	m, _ := core.NewBigMap(core.MapSize64K)
	metric, err := core.NewEdgeMetric(m.Size())
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(testProgram(t), metric, m, 200)
	if err != nil {
		t.Fatal(err)
	}
	if e.Cycles() != 0 {
		t.Fatalf("fresh executor has %d cycles", e.Cycles())
	}
	src := rng.New(7)
	var want uint64
	hangs := 0
	for i := 0; i < 300; i++ {
		input := make([]byte, 1+src.Intn(64))
		for j := range input {
			input[j] = byte(src.Uint64())
		}
		m.Reset()
		res := e.Execute(input)
		if res.Status == target.StatusHang {
			hangs++
		}
		want += res.Cycles
		if got := e.Cycles(); got != want {
			t.Fatalf("run %d: Cycles() = %d, want the sum of Result.Cycles %d", i, got, want)
		}
	}
	if want == 0 {
		t.Fatal("no run consumed a cycle")
	}
	t.Logf("%d cycles over 300 runs, %d hangs", want, hangs)
}
