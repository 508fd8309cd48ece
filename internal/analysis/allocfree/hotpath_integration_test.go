package allocfree_test

import (
	"path/filepath"
	"testing"

	"github.com/bigmap/bigmap/internal/analysis"
	"github.com/bigmap/bigmap/internal/analysis/callgraph"
)

// execLoopFunctions names every function the steady-state loop of
// internal/executor's TestExecLoopZeroAllocs executes: reset the map, run the
// input through the interpreter and the batch tracer, then classify and
// compare against virgin. The zero-allocs guard proves this loop does not
// allocate at run time; this test proves the same loop is inside the
// allocfree analyzer's net, i.e. every one of these functions is reachable
// from a //bigmap:hotpath root in the real call graph. If a refactor detaches
// one of them (say, a new indirection the graph cannot see through), the
// analyzer would silently stop checking it — this test turns that silence
// into a failure.
var execLoopFunctions = []string{
	// Per-iteration pipeline driven by the test body.
	"(*github.com/bigmap/bigmap/internal/core.BigMap).Reset",
	"(*github.com/bigmap/bigmap/internal/executor.Executor).Execute",
	"(*github.com/bigmap/bigmap/internal/core.BigMap).ClassifyAndCompare",
	// Inside Execute: metric reset, target run, trace delivery, map fill.
	"(*github.com/bigmap/bigmap/internal/core.EdgeMetric).Begin",
	"(*github.com/bigmap/bigmap/internal/target.Interp).Run",
	"(*github.com/bigmap/bigmap/internal/executor.mapTracer).VisitBatch",
	"(*github.com/bigmap/bigmap/internal/executor.mapTracer).flush",
	"(*github.com/bigmap/bigmap/internal/core.EdgeMetric).Visit",
	"(*github.com/bigmap/bigmap/internal/core.BigMap).AddBatch",
	// Call events: the interpreter asks the tracer whether it needs them,
	// the tracer asks its metric; the edge metric does not, but a
	// call-aware metric gets them relayed.
	"(*github.com/bigmap/bigmap/internal/executor.mapTracer).CallBlind",
	"(*github.com/bigmap/bigmap/internal/core.EdgeMetric).CallBlind",
	"(*github.com/bigmap/bigmap/internal/executor.mapTracer).EnterCall",
	"(*github.com/bigmap/bigmap/internal/executor.mapTracer).LeaveCall",
	"(*github.com/bigmap/bigmap/internal/core.EdgeMetric).EnterCall",
	"(*github.com/bigmap/bigmap/internal/core.EdgeMetric).LeaveCall",
	// The merged word-level kernel behind ClassifyAndCompare.
	"github.com/bigmap/bigmap/internal/core.classifyCompareRegion",
	// TestRecordReplayZeroAllocs: the havoc helper's recording run and
	// the fuzzer goroutine's replay of it.
	"(*github.com/bigmap/bigmap/internal/executor.Recorder).Record",
	"(*github.com/bigmap/bigmap/internal/executor.Executor).Replay",
}

// TestExecLoopIsCoveredByHotpathRoots builds the call graph over the real
// module and asserts every function in execLoopFunctions is reachable from a
// //bigmap:hotpath root. Skipped in -short mode: it type-checks four real
// packages.
func TestExecLoopIsCoveredByHotpathRoots(t *testing.T) {
	assertReachableFromHotpath(t, []string{"internal/core", "internal/target", "internal/executor", "internal/telemetry"}, execLoopFunctions)
}

// mutatorFunctions names every function TestHavocSpliceZeroAllocs in
// internal/mutation executes per call: the havoc and splice entry points,
// the block-length draw, and the bounded RNG draw that picks operators and
// block lengths.
var mutatorFunctions = []string{
	"(*github.com/bigmap/bigmap/internal/mutation.Mutator).Havoc",
	"(*github.com/bigmap/bigmap/internal/mutation.Mutator).Splice",
	"(*github.com/bigmap/bigmap/internal/mutation.Mutator).blockLen",
	"(*github.com/bigmap/bigmap/internal/rng.Source).Intn",
}

// TestMutatorIsCoveredByHotpathRoots is the mutator's counterpart of
// TestExecLoopIsCoveredByHotpathRoots: the zero-allocs guard proves havoc
// and splice do not allocate at run time, and this test proves the
// allocfree analyzer checks the same functions. Skipped in -short mode.
func TestMutatorIsCoveredByHotpathRoots(t *testing.T) {
	assertReachableFromHotpath(t, []string{"internal/mutation", "internal/rng"}, mutatorFunctions)
}

// assertReachableFromHotpath loads dirs of the real module, builds their
// call graph and fails for every name in funcs that is missing from the
// graph or unreachable from a //bigmap:hotpath root.
func assertReachableFromHotpath(t *testing.T, dirs, funcs []string) {
	t.Helper()
	if testing.Short() {
		t.Skip("real-module call-graph build skipped in -short mode")
	}
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := analysis.LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*analysis.Package
	for _, dir := range dirs {
		pkg, err := mod.LoadDir(dir, false)
		if err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
		pkgs = append(pkgs, pkg)
	}
	g := callgraph.Build(pkgs)

	roots := g.FuncsWithDirective("hotpath")
	if len(roots) == 0 {
		t.Fatalf("no //bigmap:hotpath roots found in %v", dirs)
	}
	parents := g.Reachable(roots)

	for _, name := range funcs {
		node := g.Lookup(name)
		if node == nil {
			t.Errorf("function %s is not in the call graph (renamed or removed? update the list)", name)
			continue
		}
		if _, ok := parents[node]; !ok {
			t.Errorf("%s executes in a zero-allocs loop but is not reachable from any //bigmap:hotpath root", name)
		}
	}
}
