package fuzzer

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"github.com/bigmap/bigmap/internal/mutation"
	"github.com/bigmap/bigmap/internal/rng"
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
	p := newHavocPipe()
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

// TestNoGoroutineOutlivesStep: Step and a RunFor cut mid-havoc both return
// with their helper gone.
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
// generates mutants comes out of Step on the caller's goroutine — where
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
}
