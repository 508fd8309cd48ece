package target

import (
	"slices"
	"testing"

	"github.com/bigmap/bigmap/internal/rng"
)

// These tests check the batched delivery contract on generated and
// hand-built programs: every executed block reaches the tracer exactly once,
// in order, with EnterCall/LeaveCall events between the right batches. The
// golden (interp_golden_test.go) pins the exact streams.

// traceEvent is one tracer callback, tagged so ordering across the three
// callback kinds is comparable.
type traceEvent struct {
	kind byte // 'v' visit, 'e' enter, 'l' leave
	id   uint32
}

// batchRecorder records the event stream and counts batches and visits.
type batchRecorder struct {
	events  []traceEvent
	batches int
	visits  int
}

func (r *batchRecorder) VisitBatch(blocks []uint32) {
	r.batches++
	r.visits += len(blocks)
	for _, b := range blocks {
		r.events = append(r.events, traceEvent{'v', b})
	}
}

func (r *batchRecorder) EnterCall(s uint32) { r.events = append(r.events, traceEvent{'e', s}) }
func (r *batchRecorder) LeaveCall()         { r.events = append(r.events, traceEvent{'l', 0}) }
func (r *batchRecorder) CallBlind() bool    { return false }

// TestBatchVisitsMatchResult replays generated programs on a reused and a
// fresh interpreter: the results and event streams must agree, and the
// tracer must see exactly Result.Blocks visits.
func TestBatchVisitsMatchResult(t *testing.T) {
	src := rng.New(0xba7c41)
	for _, profile := range Profiles() {
		prog, err := Generate(profile.Spec(0.02))
		if err != nil {
			t.Fatalf("%s: %v", profile.Name, err)
		}
		reused := NewInterp(prog)
		for trial := 0; trial < 30; trial++ {
			input := make([]byte, src.Intn(64))
			for i := range input {
				input[i] = byte(src.Uint32())
			}
			var ra, rb batchRecorder
			resA := reused.Run(input, &ra, 0)
			resB := NewInterp(prog).Run(input, &rb, 0)
			if resA.Status != resB.Status || resA.Cycles != resB.Cycles || resA.Blocks != resB.Blocks {
				t.Fatalf("%s trial %d: results diverged: %+v vs %+v", profile.Name, trial, resA, resB)
			}
			if !slices.Equal(ra.events, rb.events) {
				t.Fatalf("%s trial %d: event streams diverged (%d vs %d events)",
					profile.Name, trial, len(ra.events), len(rb.events))
			}
			if ra.visits != resA.Blocks {
				t.Fatalf("%s trial %d: batches delivered %d visits, result says %d blocks",
					profile.Name, trial, ra.visits, resA.Blocks)
			}
		}
	}
}

// TestBatchTracerFlushesAcrossRingBoundary forces more visits than the ring
// holds (three chained 255-iteration self-loops, 769 visits against a
// 512-entry ring), so the mid-run capacity flush is exercised.
func TestBatchTracerFlushesAcrossRingBoundary(t *testing.T) {
	prog := &Program{Funcs: []Func{{Blocks: []Block{
		{ID: 1, Node: Node{Kind: KindSelfLoop, Pos: 0, Val: 256, A: 1}},
		{ID: 2, Node: Node{Kind: KindSelfLoop, Pos: 0, Val: 256, A: 2}},
		{ID: 3, Node: Node{Kind: KindSelfLoop, Pos: 0, Val: 256, A: 3}},
		{ID: 4, Node: Node{Kind: KindReturn}},
	}}}}
	var want []traceEvent
	for id := uint32(1); id <= 3; id++ {
		for i := 0; i < 256; i++ {
			want = append(want, traceEvent{'v', id})
		}
	}
	want = append(want, traceEvent{'v', 4})
	var br batchRecorder
	res := NewInterp(prog).Run([]byte{255}, &br, 0)
	if res.Blocks != len(want) || !slices.Equal(br.events, want) {
		t.Fatalf("self-loop stream: %d blocks, %d events, want %d", res.Blocks, len(br.events), len(want))
	}
	if res.Blocks <= traceRingLen {
		t.Fatalf("test program too short to cross the ring: %d blocks", res.Blocks)
	}
	if br.batches < 2 {
		t.Fatalf("expected >= 2 batches for %d visits, got %d", br.visits, br.batches)
	}
}

// TestBatchTracerZeroAllocSteadyState: after the first run warms the call
// stack, batched runs must not allocate.
func TestBatchTracerZeroAllocSteadyState(t *testing.T) {
	profile := Profiles()[0]
	prog, err := Generate(profile.Spec(0.02))
	if err != nil {
		t.Fatal(err)
	}
	interp := NewInterp(prog)
	sink := 0
	tr := countingBatchTracer{&sink}
	input := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	interp.Run(input, tr, 0) // warm scratch buffers
	allocs := testing.AllocsPerRun(20, func() {
		interp.Run(input, tr, 0)
	})
	if allocs != 0 {
		t.Errorf("batched Run allocates %.1f per exec, want 0", allocs)
	}
}

// countingBatchTracer is the cheapest possible tracer that still takes call
// events: it only counts, so the alloc test measures the interpreter, not
// the consumer.
type countingBatchTracer struct{ n *int }

func (c countingBatchTracer) VisitBatch(bs []uint32) { *c.n += len(bs) }
func (c countingBatchTracer) EnterCall(uint32)       {}
func (c countingBatchTracer) LeaveCall()             {}
func (c countingBatchTracer) CallBlind() bool        { return false }
