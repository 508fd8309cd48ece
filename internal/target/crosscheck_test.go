package target_test

import (
	"slices"
	"testing"

	"github.com/bigmap/bigmap/internal/collafl"
	"github.com/bigmap/bigmap/internal/core"
	"github.com/bigmap/bigmap/internal/covreport"
	"github.com/bigmap/bigmap/internal/rng"
	"github.com/bigmap/bigmap/internal/target"
)

// mapTracer feeds the visit stream through a coverage metric into a map —
// the same wiring the executor uses.
type mapTracer struct {
	metric core.Metric
	cov    core.Map
}

func (t *mapTracer) VisitBatch(bs []uint32) {
	for _, b := range bs {
		t.cov.Add(t.metric.Visit(b))
	}
}
func (t *mapTracer) EnterCall(s uint32) { t.metric.EnterCall(s) }
func (t *mapTracer) LeaveCall()         { t.metric.LeaveCall() }
func (t *mapTracer) CallBlind() bool    { return t.metric.CallBlind() }

// TestTracerMapAgreesWithCovreport cross-checks the two coverage observers
// of the same Tracer stream: edges accumulated into an AFL-style map under
// CollAFL's collision-free sizing must count exactly what covreport's
// exact-edge replay counts for the same corpus. Any disagreement means a
// backend is seeing a different run than the interpreter performed.
func TestTracerMapAgreesWithCovreport(t *testing.T) {
	p, ok := target.ProfileByName("zlib")
	if !ok {
		t.Fatal("zlib profile missing")
	}
	prog, err := target.Generate(p.Spec(0.05))
	if err != nil {
		t.Fatal(err)
	}

	// A corpus with variety: benign seeds, random inputs, crash witnesses.
	src := rng.New(31337)
	corpus := prog.SampleSeeds(src, 8)
	for i := 0; i < 16; i++ {
		in := make([]byte, prog.InputLen)
		src.Bytes(in)
		corpus = append(corpus, in)
	}
	for attempt := 0; attempt < 500 && len(corpus) < 28; attempt++ {
		if w, ok := prog.SynthesizeCrashWitness(src); ok {
			corpus = append(corpus, w)
		}
	}

	assign, err := collafl.Assign(prog)
	if err != nil {
		t.Fatal(err)
	}
	cov, err := core.NewAFLMap(assign.MapSize())
	if err != nil {
		t.Fatal(err)
	}
	metric := assign.NewMetric()
	ip := target.NewInterp(prog)
	tracer := &mapTracer{metric: metric, cov: cov}

	report := covreport.New(prog, 0)
	// Accumulate the whole corpus into one map without resets: distinct
	// nonzero slots == distinct transitions observed.
	for _, input := range corpus {
		metric.Begin()
		ip.Run(input, tracer, 0)
		report.Add(input)
	}
	if metric.Misses() != 0 {
		t.Fatalf("collision-free assignment missed %d runtime transitions", metric.Misses())
	}
	// The metric additionally keys the sentinel->entry transition, which
	// covreport's pairwise replay by construction does not record.
	if got, want := cov.CountNonZero(), report.Edges()+1; got != want {
		t.Fatalf("AFL-style map saw %d edges, covreport exact replay saw %d (+1 entry edge)", got, want)
	}
	if report.Edges() > prog.StaticEdges() {
		t.Fatalf("observed %d edges exceeds the static enumeration %d", report.Edges(), prog.StaticEdges())
	}
}

// keyTracer records a metric's key stream. Unless calls is set it reports
// CallBlind, so the interpreter suppresses call events; with calls set it
// relays them to the metric.
type keyTracer struct {
	metric core.Metric
	calls  bool
	keys   []uint32
}

func (t *keyTracer) VisitBatch(bs []uint32) {
	for _, b := range bs {
		t.keys = append(t.keys, t.metric.Visit(b))
	}
}
func (t *keyTracer) EnterCall(s uint32) { t.metric.EnterCall(s) }
func (t *keyTracer) LeaveCall()         { t.metric.LeaveCall() }
func (t *keyTracer) CallBlind() bool    { return !t.calls }

// TestCallBlindDeclarationHolds guards every metric's CallBlind answer: the
// executor suppresses call events for a metric that reports true, so its
// key stream must not depend on them. Each metric replays generated
// programs with call events delivered and suppressed; a call-blind metric
// must produce identical keys both ways, and the context metric, which
// declares it needs the events, must differ on at least one run — proof
// that the replay reaches calls and the comparison can fail.
func TestCallBlindDeclarationHolds(t *testing.T) {
	const mapSize = core.MapSize64K
	metrics := []struct {
		name  string
		blind bool
		mk    func(*target.Program) (core.Metric, error)
	}{
		{"edge", true, func(*target.Program) (core.Metric, error) { return core.NewEdgeMetric(mapSize) }},
		{"ngram2", true, func(*target.Program) (core.Metric, error) { return core.NewNGramMetric(mapSize, 2) }},
		{"ngram3", true, func(*target.Program) (core.Metric, error) { return core.NewNGramMetric(mapSize, 3) }},
		{"ctx-edge", false, func(*target.Program) (core.Metric, error) { return core.NewContextMetric(mapSize) }},
		{"collafl", true, func(p *target.Program) (core.Metric, error) {
			a, err := collafl.Assign(p)
			if err != nil {
				return nil, err
			}
			return a.NewMetric(), nil
		}},
	}
	for _, m := range metrics {
		src := rng.New(0xca11)
		differs := 0
		for _, p := range target.Profiles() {
			prog, err := target.Generate(p.Spec(0.02))
			if err != nil {
				t.Fatal(err)
			}
			metric, err := m.mk(prog)
			if err != nil {
				t.Fatal(err)
			}
			if metric.CallBlind() != m.blind {
				t.Fatalf("%s: CallBlind() = %v, want %v", m.name, metric.CallBlind(), m.blind)
			}
			ip := target.NewInterp(prog)
			for trial := 0; trial < 8; trial++ {
				input := make([]byte, prog.InputLen)
				src.Bytes(input)
				with := keyTracer{metric: metric, calls: true}
				metric.Begin()
				ip.Run(input, &with, 0)
				without := keyTracer{metric: metric}
				metric.Begin()
				ip.Run(input, &without, 0)
				if slices.Equal(with.keys, without.keys) {
					continue
				}
				differs++
				if m.blind {
					t.Errorf("%s on %s trial %d: key stream depends on call events, but the metric reports CallBlind",
						m.name, p.Name, trial)
				}
			}
		}
		if !m.blind && differs == 0 {
			t.Errorf("%s: call events never changed a key stream; the replay does not exercise calls", m.name)
		}
	}
}
