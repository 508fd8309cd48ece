package fuzzer

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/bigmap/bigmap/internal/core"
	"github.com/bigmap/bigmap/internal/executor"
	"github.com/bigmap/bigmap/internal/mutation"
	"github.com/bigmap/bigmap/internal/rng"
	"github.com/bigmap/bigmap/internal/target"
	"github.com/bigmap/bigmap/internal/telemetry"
)

// These tests run in full under `make race` (-race -short): they are the
// race detector's view of the havoc pipeline.

var pipeDict = [][]byte{[]byte("IHDR"), []byte("\x89PNG")}

// TestHavocPipeMatchesSequentialHavoc drives a pipe directly: the mutants it
// hands out, and the RNG state recorded next to each, are those of a twin
// mutator calling Havoc in a loop. A cut after k mutants, followed by the
// rewind havocPipelined does, leaves the mutator where the twin is after k.
func TestHavocPipeMatchesSequentialHavoc(t *testing.T) {
	base := []byte("a pipelined havoc base input, long enough for block ops")
	p := newHavocPipe(nil, telemetryHooks{})
	for _, c := range []struct{ rounds, cut int }{
		{1, -1}, {16, -1}, {17, -1}, {300, -1}, {1000, -1},
		{1000, 0}, {1000, 15}, {1000, 16}, {1000, 191}, {1000, 999},
	} {
		m := mutation.New(rng.New(uint64(c.rounds)), pipeDict)
		twin := mutation.New(rng.New(uint64(c.rounds)), pipeDict)
		start := m.Source().State()
		p.start(m, base, c.rounds)
		last := start
		got := 0
	stage:
		for got < c.rounds {
			b := p.next()
			for k := 0; k < b.n; k++ {
				if got == c.cut {
					break stage
				}
				if want := twin.Havoc(base); !bytes.Equal(b.mutant(k), want) {
					t.Fatalf("rounds %d: mutant %d differs from sequential Havoc", c.rounds, got)
				}
				if b.states[k] != twin.Source().State() {
					t.Fatalf("rounds %d: RNG state after mutant %d differs", c.rounds, got)
				}
				last = b.states[k]
				got++
			}
		}
		p.join()
		m.Source().SetState(last)
		if m.Source().State() != twin.Source().State() {
			t.Errorf("rounds %d cut %d: mutator not rewound to the sequential state", c.rounds, c.cut)
		}
		if len(p.free) != mutantBatches || len(p.full) != 0 || p.running || p.held != nil {
			t.Fatalf("rounds %d cut %d: pipe not idle after join: free %d full %d running %v",
				c.rounds, c.cut, len(p.free), len(p.full), p.running)
		}
	}
}

// TestHavocJoinStopsTheHelperItWakes cuts a stage whose helper has filled
// the whole pool and waits for a free batch: the cut's join hands the held
// batch back, which wakes the helper. join must return every time; a helper
// that woke before seeing stop filled that batch too and then waited for a
// free one for ever, a hang the race detector's slower scheduling showed
// within a few dozen cuts.
func TestHavocJoinStopsTheHelperItWakes(t *testing.T) {
	base := []byte("a pipelined havoc base input")
	p := newHavocPipe(nil, telemetryHooks{})
	for i := 0; i < 2000; i++ {
		p.start(mutation.New(rng.New(uint64(i)), pipeDict), base, 1000)
		for len(p.full) < mutantBatches {
			runtime.Gosched()
		}
		p.next()
		joined := make(chan struct{})
		go func() {
			p.join()
			close(joined)
		}()
		select {
		case <-joined:
		case <-time.After(10 * time.Second):
			t.Fatalf("cut %d: join still waits for the helper after 10 s", i)
		}
	}
}

// pipeExecutor builds a BigMap executor over prog with a fresh edge metric.
func pipeExecutor(t *testing.T, prog *target.Program) (*executor.Executor, *core.BigMap) {
	t.Helper()
	m, err := core.NewBigMap(core.MapSize64K)
	if err != nil {
		t.Fatal(err)
	}
	metric, _ := core.NewEdgeMetric(core.MapSize64K)
	e, err := executor.New(prog, metric, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	return e, m
}

func bigMapState(m *core.BigMap) string {
	return fmt.Sprintf("slots %v counters %v hw %d", m.SlotKeys(), m.Snapshot(), m.HighWater())
}

// TestHavocPipeRecordsAheadOfConsumer drives a recording pipe directly. The
// consumer waits until the helper has recorded mutants before it takes
// any. The mutants and RNG states are still the sequential ones; every
// mutant the helper recorded replays to exactly an inline Execute of it
// (result, map and cycle total); and a cut in the middle of the window
// leaves the pipe idle and, after the rewind, the mutator where the
// sequential loop would be. A panic while recording leaves no mutant
// claimed by the exited helper.
func TestHavocPipeRecordsAheadOfConsumer(t *testing.T) {
	prog := fuzzTarget(t)
	inline, inlineMap := pipeExecutor(t, prog)
	replay, replayMap := pipeExecutor(t, prog)
	metric, _ := core.NewEdgeMetric(core.MapSize64K)
	rec, err := replay.NewRecorder(metric)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	p := newHavocPipe(rec, telemetryHooks{
		helperExecs:  reg.Counter("fuzzer_helper_execs_total"),
		helperExecNs: reg.Histogram("fuzzer_helper_exec_ns"),
	})
	base := prog.SampleSeeds(rng.New(5), 1)[0]
	recorded := 0
	for _, c := range []struct{ rounds, wait, cut int }{
		{40, 40, -1}, {300, 64, -1}, {1000, 200, -1}, {1000, 100, 130}, {1000, 200, 700},
	} {
		m := mutation.New(rng.New(uint64(c.rounds+c.cut)), pipeDict)
		twin := mutation.New(rng.New(uint64(c.rounds+c.cut)), pipeDict)
		before := p.helperExecs.Value()
		p.start(m, base, c.rounds)
		deadline := time.Now().Add(10 * time.Second)
		for p.helperExecs.Value()-before < uint64(c.wait) {
			if time.Now().After(deadline) {
				t.Fatalf("rounds %d: the helper recorded %d runs in 10 s, want %d",
					c.rounds, p.helperExecs.Value()-before, c.wait)
			}
			time.Sleep(100 * time.Microsecond)
		}
		last := m.Source().State()
		got, replayed := 0, 0
	stage:
		for got < c.rounds {
			b := p.next()
			for k := 0; k < b.n; k++ {
				if got == c.cut {
					break stage
				}
				mutant := b.mutant(k)
				if want := twin.Havoc(base); !bytes.Equal(mutant, want) {
					t.Fatalf("rounds %d: mutant %d differs from sequential Havoc", c.rounds, got)
				}
				if b.states[k] != twin.Source().State() {
					t.Fatalf("rounds %d: RNG state after mutant %d differs", c.rounds, got)
				}
				inlineMap.Reset()
				want := inline.Execute(mutant)
				replayMap.Reset()
				var res target.Result
				if r := b.take(k); r != nil {
					res = replay.Replay(r.res, r.keys)
					replayed++
				} else {
					res = replay.Execute(mutant)
				}
				if !reflect.DeepEqual(res, want) || bigMapState(replayMap) != bigMapState(inlineMap) ||
					replay.Cycles() != inline.Cycles() {
					t.Fatalf("rounds %d: mutant %d's run differs from an inline Execute", c.rounds, got)
				}
				last = b.states[k]
				got++
			}
		}
		p.join()
		m.Source().SetState(last)
		if m.Source().State() != twin.Source().State() {
			t.Errorf("rounds %d cut %d: mutator not rewound to the sequential state", c.rounds, c.cut)
		}
		if len(p.free) != mutantBatches || len(p.full) != 0 || p.running || p.held != nil || p.recording != nil {
			t.Fatalf("rounds %d cut %d: pipe not idle after join: free %d full %d running %v",
				c.rounds, c.cut, len(p.free), len(p.full), p.running)
		}
		if replayed == 0 {
			t.Errorf("rounds %d cut %d: no mutant was replayed", c.rounds, c.cut)
		}
		recorded += replayed
	}
	t.Logf("%d mutants replayed, %d runs recorded by the helper", recorded, p.helperExecs.Value())

	// A panic while recording gives the run's claim back before the helper
	// exits, so a consumer reaching that mutant executes it instead of
	// waiting for it forever.
	p.rec = &panickyRecorder{runRecorder: rec, at: 1}
	p.start(mutation.New(rng.New(9), pipeDict), base, 1000)
	deadline := time.Now().Add(10 * time.Second)
	for len(p.done) == 0 { // the helper fills the pool, records, panics
		if time.Now().After(deadline) {
			t.Fatal("the helper did not exit within 10 s")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if got := func() (r any) {
		defer func() { r = recover() }()
		p.join()
		return nil
	}(); got != "recording failed" {
		t.Fatalf("join recovered %v, want the helper's panic", got)
	}
	for i := range p.batches {
		for k := 0; k < p.batches[i].n; k++ {
			if p.batches[i].claims[k].Load() == claimHelper {
				t.Fatalf("batch %d mutant %d is still claimed by the exited helper", i, k)
			}
		}
	}
	if len(p.free) != mutantBatches || len(p.full) != 0 || p.running || p.recording != nil {
		t.Fatal("pipe not idle after a panic while recording")
	}
}

// waitGoroutines polls until at most n goroutines run. A joined helper has
// done all its work, but it can still be between its last send and its exit
// when the fuzzer goroutine resumes.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines outlive the havoc stage, want %d:\n%s",
				runtime.NumGoroutine(), n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNoGoroutineOutlivesStep: Step, a RunFor cut mid-havoc and a cut while
// the helper is recording all return with their helper gone.
func TestNoGoroutineOutlivesStep(t *testing.T) {
	prog := fuzzTarget(t)
	f, err := New(prog, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	seedCorpus(t, f, prog, 4)
	n := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, n)
	}
	cutMidHavoc(t, f, 2)
	waitGoroutines(t, n)

	// A cut while the helper is recording: its first run of the stage, of
	// a mutant past the cut, stalls until the cut asks it to stop.
	stall := &stallingRecorder{runRecorder: f.pipe.rec, pipe: f.pipe, stalled: make(chan struct{})}
	f.pipe.rec = stall
	cutMidHavocWhile(t, f, 2, func() { <-stall.stalled })
	waitGoroutines(t, n)
	if !stall.resumed {
		t.Error("the cut did not land while the helper was recording")
	}
}

// stallingRecorder records like the recorder it wraps, except that its
// first run waits, once started, until the pipe is asked to stop.
type stallingRecorder struct {
	runRecorder
	pipe    *havocPipe
	calls   int
	stalled chan struct{}
	resumed bool
}

func (r *stallingRecorder) Record(input []byte, keys []uint32) (target.Result, []uint32, bool) {
	r.calls++
	if r.calls == 1 {
		close(r.stalled)
		for !r.pipe.stop.Load() {
			time.Sleep(10 * time.Microsecond)
		}
		r.resumed = true
	}
	return r.runRecorder.Record(input, keys)
}

// panickyMutants is a mutator whose Havoc panics at its at-th call.
type panickyMutants struct {
	*mutation.Mutator
	at, calls int
}

func (m *panickyMutants) Havoc(base []byte) []byte {
	m.calls++
	if m.calls == m.at {
		panic("havoc generation failed")
	}
	return m.Mutator.Havoc(base)
}

// TestHavocHelperPanicReachesCaller: a panic raised while the helper
// generates mutants, or records a run, comes out of Step on the caller's goroutine — where
// parallel.Campaign's per-round recover catches it — with the helper gone
// and the pipe still usable.
func TestHavocHelperPanicReachesCaller(t *testing.T) {
	prog := fuzzTarget(t)
	f, err := New(prog, Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	seedCorpus(t, f, prog, 4)
	n := runtime.NumGoroutine()
	for _, at := range []int{1, 17, 200} {
		f.testMutants = &panickyMutants{Mutator: f.mut, at: at}
		got := func() (r any) {
			defer func() { r = recover() }()
			for i := 0; i < 50; i++ {
				if err := f.Step(); err != nil {
					t.Fatal(err)
				}
			}
			return nil
		}()
		if got != "havoc generation failed" {
			t.Fatalf("panic at mutant %d: Step recovered %v, want the helper's panic", at, got)
		}
		waitGoroutines(t, n)
		f.testMutants = nil
		if err := f.RunExecs(2000); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, n)
	}

	// A panic raised while the helper records a run.
	rec := f.pipe.rec
	for _, at := range []int{1, 30} {
		f.pipe.rec = &panickyRecorder{runRecorder: rec, at: at}
		got := func() (r any) {
			defer func() { r = recover() }()
			for i := 0; i < 50; i++ {
				if err := f.Step(); err != nil {
					t.Fatal(err)
				}
			}
			return nil
		}()
		if got != "recording failed" {
			t.Fatalf("panic at recorded run %d: Step recovered %v, want the helper's panic", at, got)
		}
		waitGoroutines(t, n)
		f.pipe.rec = rec
		if err := f.RunExecs(2000); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, n)
	}
}

// panickyRecorder is a recorder whose Record panics at its at-th call.
type panickyRecorder struct {
	runRecorder
	at, calls int
}

func (r *panickyRecorder) Record(input []byte, keys []uint32) (target.Result, []uint32, bool) {
	r.calls++
	if r.calls == r.at {
		panic("recording failed")
	}
	return r.runRecorder.Record(input, keys)
}
