package executor

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/bigmap/bigmap/internal/collafl"
	"github.com/bigmap/bigmap/internal/core"
	"github.com/bigmap/bigmap/internal/rng"
	"github.com/bigmap/bigmap/internal/target"
)

// recordTarget is a profile target with calls (for the context metric),
// crashes and, under recordBudget, hangs.
func recordTarget(t *testing.T) *target.Program {
	t.Helper()
	p, ok := target.ProfileByName("libpng")
	if !ok {
		t.Fatal("no libpng profile")
	}
	prog, err := target.Generate(p.Spec(0.05))
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

const recordBudget = 120

// mapState is everything a run leaves in a coverage map: the AFL bytes, or
// BigMap's slot table, counters, high-water mark and drop count.
func mapState(m core.Map) string {
	if big, ok := m.(*core.BigMap); ok {
		return fmt.Sprintf("slots %v counters %v hw %d dropped %d",
			big.SlotKeys(), big.Snapshot(), big.HighWater(), big.DroppedKeys())
	}
	return fmt.Sprintf("%x", m.(*core.AFLMap).Snapshot())
}

// recordInputs returns n inputs of prog: sampled seeds, crash witnesses and
// random bytes, in turn.
func recordInputs(prog *target.Program, n int) [][]byte {
	src := rng.New(99)
	seeds := prog.SampleSeeds(src, n/3)
	out := make([][]byte, 0, n)
	for i := 0; len(out) < n; i++ {
		switch i % 3 {
		case 0:
			if len(seeds) > 0 {
				out = append(out, seeds[0])
				seeds = seeds[1:]
			}
		case 1:
			if w, ok := prog.SynthesizeCrashWitness(src); ok {
				out = append(out, w)
			}
		default:
			in := make([]byte, 1+src.Intn(96))
			src.Bytes(in)
			out = append(out, in)
		}
	}
	return out
}

// TestRecordReplayMatchesExecute: for the edge, 3-gram, context and CollAFL
// metrics on the AFL map, BigMap and a saturating BigMap, recording a run
// and replaying it leaves the Result, the map and the cycle total exactly
// as Execute of the same input does, input after input.
func TestRecordReplayMatchesExecute(t *testing.T) {
	prog := recordTarget(t)
	assign, err := collafl.Assign(prog)
	if err != nil {
		t.Fatal(err)
	}
	size := max(core.MapSize64K, assign.MapSize())
	metrics := []struct {
		name string
		mk   func() (core.Metric, error)
	}{
		{"edge", func() (core.Metric, error) { return core.NewEdgeMetric(size) }},
		{"ngram3", func() (core.Metric, error) { return core.NewNGramMetric(size, 3) }},
		{"ctx-edge", func() (core.Metric, error) { return core.NewContextMetric(size) }},
		{"collafl", func() (core.Metric, error) { return assign.NewMetric(), nil }},
	}
	schemes := []struct {
		name string
		mk   func() (core.Map, error)
	}{
		{"afl", func() (core.Map, error) { return core.NewAFLMap(size) }},
		{"bigmap", func() (core.Map, error) { return core.NewBigMap(size) }},
		{"bigmap-cap64", func() (core.Map, error) { return core.NewBigMapSlots(size, 64) }},
	}
	inputs := recordInputs(prog, 300)
	buf := make([]uint32, 0, 1<<16)
	for _, sc := range schemes {
		for _, mt := range metrics {
			t.Run(sc.name+"/"+mt.name, func(t *testing.T) {
				newExecutor := func() (*Executor, core.Map) {
					m, err := sc.mk()
					if err != nil {
						t.Fatal(err)
					}
					metric, err := mt.mk()
					if err != nil {
						t.Fatal(err)
					}
					e, err := New(prog, metric, m, recordBudget)
					if err != nil {
						t.Fatal(err)
					}
					return e, m
				}
				exe, exeMap := newExecutor()
				rep, repMap := newExecutor()
				metric, err := mt.mk()
				if err != nil {
					t.Fatal(err)
				}
				rec, err := rep.NewRecorder(metric)
				if err != nil {
					t.Fatal(err)
				}
				statuses := map[target.Status]int{}
				cycles := []uint64{}
				for i, in := range inputs {
					exeMap.Reset()
					want := exe.Execute(in)
					res, keys, ok := rec.Record(in, buf)
					if !ok {
						t.Fatalf("input %d: %d-key run overflowed %d keys", i, len(keys), cap(buf))
					}
					repMap.Reset()
					got := rep.Replay(res, keys)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("input %d: replayed result %+v, executed %+v", i, got, want)
					}
					if g, w := mapState(repMap), mapState(exeMap); g != w {
						t.Fatalf("input %d: replayed map differs:\n got %s\nwant %s", i, g, w)
					}
					if rep.Cycles() != exe.Cycles() {
						t.Fatalf("input %d: replay cycle total %d, execute %d", i, rep.Cycles(), exe.Cycles())
					}
					statuses[want.Status]++
					cycles = append(cycles, want.Cycles)
				}
				if statuses[target.StatusCrash] == 0 || statuses[target.StatusHang] == 0 {
					slices.Sort(cycles)
					t.Errorf("inputs reached statuses %v, want crashes and hangs among them %v", statuses, cycles)
				}
			})
		}
	}
}

// TestRecordOverflowLeavesMapUntouched: a run longer than its slice reports
// that it overflowed, touches neither the executor's map nor its cycle
// total, writes no key past the slice, and leaves the recorder usable.
func TestRecordOverflowLeavesMapUntouched(t *testing.T) {
	prog := recordTarget(t)
	m, _ := core.NewBigMap(core.MapSize64K)
	metric, _ := core.NewContextMetric(core.MapSize64K)
	e, err := New(prog, metric, m, recordBudget)
	if err != nil {
		t.Fatal(err)
	}
	second, _ := core.NewContextMetric(core.MapSize64K)
	rec, err := e.NewRecorder(second)
	if err != nil {
		t.Fatal(err)
	}
	in := recordInputs(prog, 1)[0]
	full := make([]uint32, 0, 1<<16)
	res, keys, ok := rec.Record(in, full)
	if !ok || len(keys) < 2 {
		t.Fatalf("reference run: ok %v with %d keys", ok, len(keys))
	}
	want := slices.Clone(keys)
	m.Reset()
	e.Replay(res, keys)
	before, cycles := mapState(m), e.Cycles()

	arena := make([]uint32, len(want)+8)
	for i := range arena {
		arena[i] = 0xdeadbeef
	}
	short := arena[: 0 : len(want)-1]
	if _, _, ok := rec.Record(in, short); ok {
		t.Fatalf("a %d-key run fit in %d keys", len(want), cap(short))
	}
	if mapState(m) != before || e.Cycles() != cycles {
		t.Error("an overflowed recording changed the executor's map or cycle total")
	}
	for i, k := range arena[len(want)-1:] {
		if k != 0xdeadbeef {
			t.Fatalf("overflowed recording wrote key %d past its slice", len(want)-1+i)
		}
	}
	// Exactly the run's length fits, with the same keys as before.
	_, keys, ok = rec.Record(in, arena[:0:len(want)])
	if !ok || !slices.Equal(keys, want) {
		t.Fatalf("recording after an overflow: ok %v, keys equal %v", ok, slices.Equal(keys, want))
	}
}

// TestNewRecorderRejectsImpureRuns: the fault-injecting runner picks faults
// by execution index, and a shared metric would be driven from two
// goroutines, so neither can be recorded.
func TestNewRecorderRejectsImpureRuns(t *testing.T) {
	prog := testProgram(t)
	m, _ := core.NewAFLMap(core.MapSize64K)
	metric, _ := core.NewEdgeMetric(core.MapSize64K)
	fresh, _ := core.NewEdgeMetric(core.MapSize64K)
	clean, err := New(prog, metric, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clean.NewRecorder(metric); !errors.Is(err, ErrNotRecordable) {
		t.Errorf("recorder sharing the executor's metric: err = %v", err)
	}
	if _, err := clean.NewRecorder(fresh); err != nil {
		t.Errorf("clean interpreter: err = %v", err)
	}
	faulty, err := NewWithRunner(target.NewFaulty(prog, target.FaultProfile{Seed: 1}), metric, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := faulty.NewRecorder(fresh); !errors.Is(err, ErrNotRecordable) {
		t.Errorf("fault-injecting runner: err = %v", err)
	}
}

// TestRecordReplayZeroAllocs: recording into a caller's slice and replaying
// it allocates nothing, like the Execute loop (TestExecLoopZeroAllocs).
func TestRecordReplayZeroAllocs(t *testing.T) {
	prog := recordTarget(t)
	m, _ := core.NewBigMap(core.MapSize8M)
	metric, _ := core.NewEdgeMetric(core.MapSize8M)
	e, err := New(prog, metric, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	second, _ := core.NewEdgeMetric(core.MapSize8M)
	rec, err := e.NewRecorder(second)
	if err != nil {
		t.Fatal(err)
	}
	virgin := m.NewVirgin()
	input := prog.SampleSeeds(rng.New(3), 1)[0]
	buf := make([]uint32, 0, 1<<16)
	run := func() {
		res, keys, _ := rec.Record(input, buf)
		m.Reset()
		e.Replay(res, keys)
		m.ClassifyAndCompare(virgin)
	}
	run() // assign the input's slots
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Errorf("record + replay allocates %.2f per exec, want 0", allocs)
	}
}
