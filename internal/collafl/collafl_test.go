package collafl

import (
	"testing"

	"github.com/bigmap/bigmap/internal/core"
	"github.com/bigmap/bigmap/internal/rng"
	"github.com/bigmap/bigmap/internal/target"
)

func genProgram(t *testing.T) *target.Program {
	t.Helper()
	prog, err := target.Generate(target.GenSpec{
		Name:           "collafl",
		Seed:           41,
		NumFuncs:       6,
		BlocksPerFunc:  14,
		InputLen:       48,
		BranchFraction: 0.6,
		Switches:       3,
		SwitchFanout:   5,
		Loops:          3,
		LoopMax:        8,
		MagicCompares:  2,
		MagicWidth:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestAssignCoversStaticEdges(t *testing.T) {
	prog := genProgram(t)
	a, err := Assign(prog)
	if err != nil {
		t.Fatal(err)
	}
	// The assignment size tracks the static edge count but is not equal to
	// it: distinct CFG arcs with identical (from, to) endpoints (e.g. a
	// compare whose both arms fall through) deduplicate to one ID, while
	// entry and per-callsite return edges add IDs the static count omits.
	static := prog.StaticEdges()
	if a.Edges() < static*6/10 || a.Edges() > static*3/2 {
		t.Errorf("assigned %d IDs, implausible against %d static edges", a.Edges(), static)
	}
	if a.MapSize() < a.Edges() {
		t.Errorf("map size %d cannot hold %d IDs", a.MapSize(), a.Edges())
	}
	if a.MapSize()&(a.MapSize()-1) != 0 {
		t.Errorf("map size %d not a power of two", a.MapSize())
	}
}

func TestAssignedIDsAreUnique(t *testing.T) {
	prog := genProgram(t)
	a, err := Assign(prog)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint32]bool, len(a.table))
	for _, id := range a.table {
		if seen[id] {
			t.Fatal("duplicate static edge ID")
		}
		seen[id] = true
		if int(id) >= a.MapSize() {
			t.Fatalf("ID %d outside map of %d", id, a.MapSize())
		}
	}
}

// TestRuntimeTransitionsAllResolve is the key soundness property: every
// transition an actual execution produces must be found in the static
// table (zero fallback misses).
func TestRuntimeTransitionsAllResolve(t *testing.T) {
	prog := genProgram(t)
	a, err := Assign(prog)
	if err != nil {
		t.Fatal(err)
	}
	metric := a.NewMetric()
	cov, err := core.NewBigMap(a.MapSize())
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(5)
	ip := target.NewInterp(prog)
	inputs := prog.SampleSeeds(src, 50)
	for i := 0; i < 200; i++ {
		in := make([]byte, 48)
		src.Bytes(in)
		inputs = append(inputs, in)
	}
	for _, in := range inputs {
		metric.Begin()
		ip.Run(in, &metricTracer{m: metric, cov: cov}, 1<<22)
	}
	if metric.Misses() != 0 {
		t.Errorf("%d runtime transitions missed the static table", metric.Misses())
	}
}

// TestCollAFLIsCollisionFree: distinct traversed edges always map to
// distinct coverage keys, so the empirical collision rate is exactly zero —
// CollAFL's whole point.
func TestCollAFLIsCollisionFree(t *testing.T) {
	prog := genProgram(t)
	a, err := Assign(prog)
	if err != nil {
		t.Fatal(err)
	}
	metric := a.NewMetric()
	ip := target.NewInterp(prog)
	src := rng.New(6)

	keyOf := make(map[transition]uint32)
	rec := &recordingTracer{metric: metric, keyOf: keyOf}
	for i := 0; i < 100; i++ {
		in := make([]byte, 48)
		src.Bytes(in)
		metric.Begin()
		rec.prevSet = false
		ip.Run(in, rec, 1<<22)
		if rec.conflict {
			t.Fatal("same transition produced different keys")
		}
	}
	// Invert: no two distinct transitions share a key.
	used := make(map[uint32]transition, len(keyOf))
	for p, k := range keyOf {
		if other, dup := used[k]; dup && other != p {
			t.Fatalf("transitions %v and %v collided on key %d", p, other, k)
		}
		used[k] = p
	}
}

func TestMetricName(t *testing.T) {
	prog := genProgram(t)
	a, err := Assign(prog)
	if err != nil {
		t.Fatal(err)
	}
	if a.NewMetric().Name() != "collafl" {
		t.Error("wrong metric name")
	}
}

// TestFuzzerIntegration runs a full campaign with the CollAFL metric over a
// BigMap — the paper's suggested combination.
func TestFuzzerIntegration(t *testing.T) {
	prog := genProgram(t)
	a, err := Assign(prog)
	if err != nil {
		t.Fatal(err)
	}
	f, err := newFuzzer(prog, a)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(7)
	ok := 0
	for _, s := range prog.SampleSeeds(src, 4) {
		if err := f.AddSeed(s); err == nil {
			ok++
		}
	}
	if ok == 0 {
		t.Fatal("no seeds")
	}
	if err := f.RunExecs(5000); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.EdgesDiscovered == 0 {
		t.Error("no coverage via collafl metric")
	}
	if st.EdgesDiscovered > a.Edges() {
		t.Errorf("discovered %d > %d assigned IDs", st.EdgesDiscovered, a.Edges())
	}
}

// metricTracer drives metric+map like the executor does.
type metricTracer struct {
	m   core.Metric
	cov core.Map
}

func (t *metricTracer) VisitBatch(bs []uint32) {
	for _, b := range bs {
		t.cov.Add(t.m.Visit(b))
	}
}
func (t *metricTracer) EnterCall(uint32) {}
func (t *metricTracer) LeaveCall()       {}
func (t *metricTracer) CallBlind() bool  { return true }

// transition is a (from, to) block pair observed at runtime.
type transition struct{ from, to uint32 }

// recordingTracer checks key stability per transition.
type recordingTracer struct {
	metric   *Metric
	keyOf    map[transition]uint32
	prev     uint32
	prevSet  bool
	conflict bool
}

func (t *recordingTracer) VisitBatch(bs []uint32) {
	for _, b := range bs {
		key := t.metric.Visit(b)
		if t.prevSet {
			p := transition{t.prev, b}
			if old, ok := t.keyOf[p]; ok && old != key {
				t.conflict = true
			}
			t.keyOf[p] = key
		}
		t.prev = b
		t.prevSet = true
	}
}
func (t *recordingTracer) EnterCall(uint32) {}
func (t *recordingTracer) LeaveCall()       {}
func (t *recordingTracer) CallBlind() bool  { return true }
