package target_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"github.com/bigmap/bigmap/internal/core"
	"github.com/bigmap/bigmap/internal/fuzzer"
	"github.com/bigmap/bigmap/internal/rng"
	"github.com/bigmap/bigmap/internal/target"
)

// These tests check the compiled interpreter (Interp) against the
// tree-walking reference it replaced (target.RefInterp): the same Result,
// the same visit stream cut into the same VisitBatch calls, and the same
// call and compare-hook events, for call-aware and call-blind tracers.

// event is one tracer or compare-hook callback. A batch is recorded as its
// size followed by its visits, so batch boundaries are compared too.
type event struct {
	kind byte // 'b' batch, 'v' visit, 'e' enter, 'l' leave, 'c' compare
	id   uint32
	cmp  target.Compare
}

// eventLog records every callback in order; blind makes it call-blind.
type eventLog struct {
	events []event
	blind  bool
}

func (l *eventLog) VisitBatch(bs []uint32) {
	l.events = append(l.events, event{kind: 'b', id: uint32(len(bs))})
	for _, b := range bs {
		l.events = append(l.events, event{kind: 'v', id: b})
	}
}
func (l *eventLog) EnterCall(s uint32)       { l.events = append(l.events, event{kind: 'e', id: s}) }
func (l *eventLog) LeaveCall()               { l.events = append(l.events, event{kind: 'l'}) }
func (l *eventLog) CallBlind() bool          { return l.blind }
func (l *eventLog) compare(c target.Compare) { l.events = append(l.events, event{kind: 'c', cmp: c}) }

// runner is what both interpreters offer.
type runner interface {
	SetCompareHook(func(target.Compare))
	Run(input []byte, tracer target.Tracer, budget uint64) target.Result
}

// record runs input on r with a fresh log, hooking compares for call-aware
// runs only, so both hook states are exercised.
func record(r runner, input []byte, budget uint64, blind bool) (target.Result, []event) {
	log := &eventLog{blind: blind}
	if blind {
		r.SetCompareHook(nil)
	} else {
		r.SetCompareHook(log.compare)
	}
	res := r.Run(input, log, budget)
	return res, log.events
}

// mismatch runs input on both interpreters, call-aware and call-blind, and
// describes the first difference, or returns "".
func mismatch(ip *target.Interp, ref *target.RefInterp, input []byte, budget uint64) string {
	for _, blind := range []bool{false, true} {
		got, gotEvents := record(ip, input, budget, blind)
		want, wantEvents := record(ref, input, budget, blind)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Sprintf("blind=%v budget=%d: result %+v, reference %+v", blind, budget, got, want)
		}
		if !slices.Equal(gotEvents, wantEvents) {
			i := 0
			for i < len(gotEvents) && i < len(wantEvents) && gotEvents[i] == wantEvents[i] {
				i++
			}
			return fmt.Sprintf("blind=%v budget=%d: event streams differ at %d of %d/%d",
				blind, budget, i, len(gotEvents), len(wantEvents))
		}
	}
	return ""
}

// randomProgram builds an arbitrary small program: every node kind and
// some unknown ones, targets and callees in and out of range, positions
// below zero and past any input, zero and wide costs, empty functions and
// recursion. Runs under it need a small budget to stay short.
func randomProgram(src *rng.Source) *target.Program {
	nf := 1 + src.Intn(5)
	prog := &target.Program{Name: "random", Funcs: make([]target.Func, nf)}
	id := uint32(1)
	// index draws a block index or callee mostly in [-1, n], sometimes far
	// outside it.
	index := func(n int) int {
		switch src.Intn(16) {
		case 0:
			return -1 << (1 + src.Intn(40))
		case 1:
			return 1 << (1 + src.Intn(40))
		}
		return src.Intn(n+2) - 1
	}
	pos := func() int {
		switch src.Intn(8) {
		case 0:
			return -src.Intn(10)
		case 1:
			return 1 << (31 + src.Intn(8))
		}
		return src.Intn(12)
	}
	for fi := range prog.Funcs {
		if src.Chance(6) {
			continue // an empty function
		}
		n := 1 + src.Intn(8)
		blocks := make([]target.Block, n)
		for bi := range blocks {
			b := &blocks[bi]
			b.ID = id
			id++
			b.Cost = uint64(src.Intn(4))
			if src.Chance(16) {
				b.Cost = src.Uint64() >> src.Intn(40)
			}
			nd := &b.Node
			nd.Kind = target.NodeKind(src.Intn(11))
			if src.Chance(32) {
				nd.Kind = target.NodeKind(src.Intn(256))
			}
			nd.Pos, nd.A, nd.B = pos(), index(n), index(n)
			nd.Val = src.Uint64() >> src.Intn(64)
			nd.Width = src.Intn(11) - 1
			switch nd.Kind {
			case target.KindCall:
				nd.A = index(nf)
			case target.KindSwitch:
				for k := src.Intn(5); k > 0; k-- {
					nd.Cases = append(nd.Cases, target.SwitchCase{Value: byte(src.Intn(4)), Target: index(n)})
				}
			case target.KindSelfLoop:
				nd.Val = uint64(src.Intn(300))
				if src.Chance(8) {
					nd.Val = src.Uint64()
				}
			}
		}
		prog.Funcs[fi].Blocks = blocks
	}
	return prog
}

// fuzzProgram is the generated program FuzzInterp runs: the same CFG shape
// the benchmarks use (calls, switches, self-loops, magic compares, crash
// and hang sites).
func fuzzProgram(f *testing.F) *target.Program {
	prog, err := target.Generate(target.GenSpec{
		Name: "fuzz", Seed: 1234, NumFuncs: 4, BlocksPerFunc: 10,
		InputLen: 32, BranchFraction: 0.6,
		MagicCompares: 2, MagicWidth: 4, BonusBlocks: 4,
		GatedCallFraction: 0.5,
		Switches:          2, SwitchFanout: 4,
		Loops: 2, LoopMax: 8,
		CrashSites: 2, CrashDepth: 1,
		HangSites: 1,
	})
	if err != nil {
		f.Fatal(err)
	}
	return prog
}

// FuzzInterp drives the interpreter with arbitrary inputs against a fixed
// generated program and asserts the safety contract every caller relies
// on: no panics, termination within the cycle budget, and bit-for-bit
// determinism. It also requires the compiled interpreter to agree exactly
// with the reference on that program, under the fuzzing budget and a small
// one derived from the input, and on a random hand-built program decoded
// from the input.
func FuzzInterp(f *testing.F) {
	prog := fuzzProgram(f)
	ip, ref := target.NewInterp(prog), target.NewRefInterp(prog)

	f.Add([]byte{})
	f.Add(make([]byte, 32))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	for _, s := range prog.SampleSeeds(rng.New(7), 4) {
		f.Add(s)
	}

	const budget = 1 << 14
	f.Fuzz(func(t *testing.T, input []byte) {
		var first traceTracer
		res := ip.Run(input, &first, budget)
		if res.Cycles > budget {
			t.Fatalf("run consumed %d cycles, budget %d", res.Cycles, budget)
		}
		switch res.Status {
		case target.StatusOK, target.StatusCrash, target.StatusHang:
		default:
			t.Fatalf("impossible status %v", res.Status)
		}
		if res.Status == target.StatusCrash && res.CrashSite == 0 {
			t.Fatal("crash without a crash site")
		}
		if res.Blocks != len(first.ids) {
			t.Fatalf("Result.Blocks = %d but tracer saw %d visits", res.Blocks, len(first.ids))
		}
		var again traceTracer
		res2 := ip.Run(input, &again, budget)
		if res.Status != res2.Status || res.Cycles != res2.Cycles ||
			res.Blocks != res2.Blocks || res.CrashSite != res2.CrashSite {
			t.Fatalf("nondeterministic result: %+v vs %+v", res, res2)
		}
		if !slices.Equal(first.ids, again.ids) {
			t.Fatal("nondeterministic visit trace")
		}

		var sum uint64
		for _, b := range input {
			sum = sum*31 + uint64(b)
		}
		small := 1 + sum%256
		for _, b := range []uint64{budget, small} {
			if msg := mismatch(ip, ref, input, b); msg != "" {
				t.Fatal(msg)
			}
		}
		hand := randomProgram(rng.New(sum))
		if msg := mismatch(target.NewInterp(hand), target.NewRefInterp(hand), input, 1+sum%2048); msg != "" {
			t.Fatalf("random program: %s", msg)
		}
	})
}

// fuzzedQueue fuzzes a profile's program for a fixed number of execs from a
// fixed seed and returns the program and its queue's inputs: inputs shaped
// like the ones a campaign executes, rather than random bytes.
func fuzzedQueue(tb testing.TB, name string, scale float64, execs uint64) (*target.Program, [][]byte) {
	tb.Helper()
	p, ok := target.ProfileByName(name)
	if !ok {
		tb.Fatalf("profile %s missing", name)
	}
	prog, err := target.Generate(p.Spec(scale))
	if err != nil {
		tb.Fatal(err)
	}
	f, err := fuzzer.New(prog, fuzzer.Config{Scheme: fuzzer.SchemeBigMap, MapSize: core.MapSize2M, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := f.AddSeeds(prog.SampleSeeds(rng.New(1), 16)); err != nil {
		tb.Fatal(err)
	}
	if err := f.RunExecs(execs); err != nil {
		tb.Fatal(err)
	}
	var inputs [][]byte
	for _, e := range f.Queue().Entries() {
		inputs = append(inputs, e.Input)
	}
	return prog, inputs
}

// TestInterpMatchesReference replays fuzzed queues of three profiles on the
// compiled interpreter and the reference, under the default budget and
// budgets that cut runs short.
func TestInterpMatchesReference(t *testing.T) {
	src := rng.New(0xd1ff)
	for _, name := range []string{"libpng", "zlib", "sqlite3"} {
		prog, queue := fuzzedQueue(t, name, 0.05, 3000)
		ip, ref := target.NewInterp(prog), target.NewRefInterp(prog)
		for i, input := range queue {
			for _, budget := range []uint64{0, 1 + uint64(src.Intn(64)), 1 + uint64(src.Intn(2000))} {
				if msg := mismatch(ip, ref, input, budget); msg != "" {
					t.Fatalf("%s entry %d: %s", name, i, msg)
				}
			}
		}
		t.Logf("%s: %d entries agree", name, len(queue))
	}
}

// TestRandomProgramsMatchReference runs seeded random hand-built programs
// (see randomProgram) on both interpreters.
func TestRandomProgramsMatchReference(t *testing.T) {
	src := rng.New(0x5eed)
	for trial := 0; trial < 2000; trial++ {
		prog := randomProgram(src)
		ip, ref := target.NewInterp(prog), target.NewRefInterp(prog)
		for k := 0; k < 4; k++ {
			input := make([]byte, src.Intn(12))
			src.Bytes(input)
			if msg := mismatch(ip, ref, input, 1+uint64(src.Intn(3000))); msg != "" {
				t.Fatalf("trial %d input %x: %s", trial, input, msg)
			}
		}
	}
}

// countTracer is the cheapest tracer that still takes call events, so the
// benchmark measures the interpreter rather than the consumer.
type countTracer struct{ n int }

func (c *countTracer) VisitBatch(bs []uint32) { c.n += len(bs) }
func (c *countTracer) EnterCall(uint32)       {}
func (c *countTracer) LeaveCall()             {}
func (c *countTracer) CallBlind() bool        { return true }

// BenchmarkInterp times the compiled interpreter and the reference over a
// fuzzed queue, reporting ns per executed block and µs per queue entry.
func BenchmarkInterp(b *testing.B) {
	for _, c := range []struct {
		name  string
		scale float64
	}{{"libpng", 0.05}, {"sqlite3", 0.1}, {"sqlite3", 0.25}} {
		prog, queue := fuzzedQueue(b, c.name, c.scale, 20000)
		for _, impl := range []struct {
			name string
			r    runner
		}{{"compiled", target.NewInterp(prog)}, {"reference", target.NewRefInterp(prog)}} {
			b.Run(fmt.Sprintf("%s@%g/%s", c.name, c.scale, impl.name), func(b *testing.B) {
				var tr countTracer
				runs := 0
				for i := 0; i < b.N; i++ {
					for _, input := range queue {
						impl.r.Run(input, &tr, 0)
					}
					runs += len(queue)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(tr.n), "ns/block")
				b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(runs), "µs/entry")
				b.ReportMetric(float64(len(queue)), "entries")
			})
		}
	}
}
