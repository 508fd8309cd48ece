package target

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/bigmap/bigmap/internal/rng"
)

// The interpreter golden pins the full observable behaviour of Interp.Run
// — the Result and the ordered VisitBatch/EnterCall/LeaveCall/compare-hook
// event stream, batch boundaries included — over hand-built programs that
// reach every edge of its contract, plus a digest over generated programs.
// The hand-built programs also pin the call-blind stream, whose visits the
// test checks against the stream with call events. Regenerate
// testdata/interp_golden.txt with
//
//	go test ./internal/target/ -run TestInterpGolden -update
//
// only for a deliberate semantic change: campaigns, checkpoints and every
// recorded result depend on this stream staying bit-identical.
var updateGolden = flag.Bool("update", false, "rewrite testdata/interp_golden.txt")

const interpGoldenPath = "testdata/interp_golden.txt"

// goldenRecorder logs every tracer and hook event as a token. Each
// VisitBatch call starts with a b<size> token, so ring flush points are
// part of the stream. A blind recorder reports CallBlind, making the
// interpreter drop call events and the ring flushes around them.
type goldenRecorder struct {
	tokens []string
	blind  bool
}

func (r *goldenRecorder) VisitBatch(blocks []uint32) {
	r.tokens = append(r.tokens, fmt.Sprintf("b%d", len(blocks)))
	for _, b := range blocks {
		r.tokens = append(r.tokens, fmt.Sprintf("v%d", b))
	}
}
func (r *goldenRecorder) EnterCall(s uint32) {
	r.tokens = append(r.tokens, fmt.Sprintf("e%d", s))
}
func (r *goldenRecorder) LeaveCall()      { r.tokens = append(r.tokens, "l") }
func (r *goldenRecorder) CallBlind() bool { return r.blind }
func (r *goldenRecorder) compare(c Compare) {
	r.tokens = append(r.tokens, fmt.Sprintf("c%d:%x:%d", c.Pos, c.Val, c.Width))
}

// recordRun executes input with the compare hook off and returns the
// result and the recorded tokens.
func recordRun(ip *Interp, input []byte, budget uint64, blind bool) (Result, []string) {
	rec := &goldenRecorder{blind: blind}
	ip.SetCompareHook(nil)
	res := ip.Run(input, rec, budget)
	return res, rec.tokens
}

// visitsOnly keeps the v<id> tokens of a stream.
func visitsOnly(tokens []string) []string {
	var visits []string
	for _, tok := range tokens {
		if tok[0] == 'v' {
			visits = append(visits, tok)
		}
	}
	return visits
}

// callBlindMismatch runs input with call events and call-blind and
// describes how they differ, or returns "". The blind run must have the
// same Result and the same visit stream minus the call events, in batches
// that are all full rings but the last.
func callBlindMismatch(ip *Interp, input []byte, budget uint64) string {
	want, plain := recordRun(ip, input, budget, false)
	got, tokens := recordRun(ip, input, budget, true)
	if g, w := formatResult(got), formatResult(want); g != w {
		return fmt.Sprintf("result %s, with calls %s", g, w)
	}
	var batches []string
	for _, tok := range tokens {
		switch tok[0] {
		case 'v':
		case 'b':
			batches = append(batches, tok)
		default:
			return fmt.Sprintf("call-blind run delivered event %s", tok)
		}
	}
	visits, plainVisits := visitsOnly(tokens), visitsOnly(plain)
	if g, w := strings.Join(visits, " "), strings.Join(plainVisits, " "); g != w {
		return fmt.Sprintf("visits %s, with calls %s", abbreviate(visits), abbreviate(plainVisits))
	}
	for i := 0; i+1 < len(batches); i++ {
		if batches[i] != fmt.Sprintf("b%d", traceRingLen) {
			return fmt.Sprintf("batch %d of %d is %s, not a full ring", i, len(batches), batches[i])
		}
	}
	return ""
}

// abbreviate prints short token lists in full and long ones as a count and
// a digest, keeping the golden file reviewable.
func abbreviate(tokens []string) string {
	if len(tokens) <= 48 {
		return "[" + strings.Join(tokens, " ") + "]"
	}
	sum := sha256.Sum256([]byte(strings.Join(tokens, " ")))
	return fmt.Sprintf("n=%d sha=%s", len(tokens), hex.EncodeToString(sum[:8]))
}

func formatResult(res Result) string {
	stack := make([]string, len(res.Stack))
	for i, s := range res.Stack {
		stack[i] = fmt.Sprint(s)
	}
	return fmt.Sprintf("%v cycles=%d blocks=%d crash=%d stack=%s",
		res.Status, res.Cycles, res.Blocks, res.CrashSite, abbreviate(stack))
}

// goldenRun executes input on ip with call events, compare hook off and
// on, and returns one line per mode.
func goldenRun(ip *Interp, input []byte, budget uint64) []string {
	var lines []string
	for _, mode := range []string{"batch", "batch+hook"} {
		rec := &goldenRecorder{}
		if mode == "batch+hook" {
			ip.SetCompareHook(rec.compare)
		} else {
			ip.SetCompareHook(nil)
		}
		res := ip.Run(input, rec, budget)
		lines = append(lines, fmt.Sprintf("  in=%x budget=%d %s: %s events=%s",
			input, budget, mode, formatResult(res), abbreviate(rec.tokens)))
	}
	return lines
}

// goldenCase is one hand-built program with the inputs and budgets it runs.
type goldenCase struct {
	name    string
	prog    *Program
	inputs  [][]byte
	budgets []uint64
}

func fn(blocks ...Block) Func { return Func{Blocks: blocks} }

func blk(id uint32, cost uint64, nd Node) Block { return Block{ID: id, Cost: cost, Node: nd} }

var ret = Node{Kind: KindReturn}

func goldenCases() []goldenCase {
	loop256 := func(id uint32, exit int) Block {
		return blk(id, 1, Node{Kind: KindSelfLoop, Pos: 0, Val: 256, A: exit})
	}
	return []goldenCase{
		{name: "empty-program", prog: &Program{}},
		{name: "empty-entry", prog: &Program{Funcs: []Func{{}, fn(blk(9, 1, ret))}}},
		{name: "jump-out-of-range", prog: &Program{Funcs: []Func{fn(
			blk(1, 1, Node{Kind: KindJump, A: 1}),
			blk(2, 1, Node{Kind: KindJump, A: 7}),
		)}}},
		{name: "jump-negative", prog: &Program{Funcs: []Func{fn(
			blk(1, 1, Node{Kind: KindJump, A: -1}),
		)}}},
		{name: "compare-targets-out-of-range", prog: &Program{Funcs: []Func{fn(
			blk(1, 2, Node{Kind: KindCompareByte, Pos: 0, Val: 'A', A: 1, B: -2}),
			blk(2, 2, Node{Kind: KindCompareWord, Pos: 1, Val: 0x4342, Width: 2, A: 9, B: 2}),
			blk(3, 2, ret),
		)}}, inputs: [][]byte{[]byte("A"), []byte("B"), []byte("ABC"), []byte("ABD")}},
		{name: "switch-targets-out-of-range", prog: &Program{Funcs: []Func{fn(
			blk(1, 1, Node{Kind: KindSwitch, Pos: 0, Cases: []SwitchCase{{1, 9}, {2, 1}, {3, -1}, {2, 2}}, B: 2}),
			blk(2, 1, ret),
			blk(3, 1, ret),
		)}}, inputs: [][]byte{{1}, {2}, {3}, {4}, nil}},
		{name: "degenerate-calls", prog: &Program{Funcs: []Func{
			fn(
				blk(1, 1, Node{Kind: KindCall, A: 9, B: 1}),
				blk(2, 1, Node{Kind: KindCall, A: -1, B: 2}),
				blk(3, 1, Node{Kind: KindCall, A: 1, B: 3}),
				blk(4, 1, Node{Kind: KindCall, A: 2, B: 4}),
				blk(5, 1, Node{Kind: KindCall, A: 2, B: 42}),
			),
			{},
			fn(blk(20, 3, ret)),
		}}},
		{name: "cost-zero", prog: &Program{Funcs: []Func{fn(
			blk(1, 0, Node{Kind: KindJump, A: 1}),
			blk(2, 0, Node{Kind: KindJump, A: 2}),
			blk(3, 5, Node{Kind: KindJump, A: 3}),
			blk(4, 0, Node{Kind: KindSelfLoop, Pos: 0, Val: 10, A: 4}),
			blk(5, 0, ret),
		)}}, inputs: [][]byte{{0}, {9}}, budgets: []uint64{0, 2, 3, 8, 12, 17}},
		{name: "compare-word-widths", prog: &Program{Funcs: []Func{fn(
			blk(1, 1, Node{Kind: KindCompareWord, Pos: 0, Val: 0x1234, Width: 0, A: 1, B: 1}),
			blk(2, 1, Node{Kind: KindCompareWord, Pos: 0, Val: 0x0807060504030234, Width: 9, A: 2, B: 2}),
			blk(3, 1, Node{Kind: KindCompareWord, Pos: 1, Val: 0xffffffff05040302, Width: 4, A: 3, B: 3}),
			blk(4, 1, Node{Kind: KindCompareWord, Pos: 6, Val: 0, Width: 8, A: 4, B: 4}),
			blk(5, 1, Node{Kind: KindCompareWord, Pos: -1, Val: 0, Width: -3, A: 5, B: 5}),
			blk(6, 1, ret),
		)}}, inputs: [][]byte{nil, {0x34}, {0x34, 2, 3, 4, 5, 6, 7, 8, 9}, {0x34, 2, 3, 4, 5, 6}}},
		{name: "self-loop-val-zero", prog: &Program{Funcs: []Func{fn(
			blk(1, 1, Node{Kind: KindSelfLoop, Pos: 0, Val: 0, A: 1}),
			blk(2, 1, Node{Kind: KindSelfLoop, Pos: 0, Val: 3, A: 2}),
			blk(3, 1, ret),
		)}}, inputs: [][]byte{nil, {200}, {5}}},
		{name: "self-loop-hang", prog: &Program{Funcs: []Func{fn(
			blk(1, 3, Node{Kind: KindSelfLoop, Pos: 0, Val: 256, A: 1}),
			blk(2, 1, ret),
		)}}, inputs: [][]byte{{255}, {20}}, budgets: []uint64{0, 60, 64}},
		{name: "recursion-past-max-depth", prog: &Program{Funcs: []Func{
			fn(blk(1, 1, Node{Kind: KindCall, A: 1, B: 1}), blk(2, 1, ret)),
			fn(blk(10, 1, Node{Kind: KindCall, A: 1, B: 1}), blk(11, 1, ret)),
		}}, budgets: []uint64{0, 1000}},
		{name: "bounded-recursion", prog: &Program{Funcs: []Func{
			fn(blk(1, 1, Node{Kind: KindCall, A: 1, B: 1}), blk(2, 1, ret)),
			fn(
				blk(10, 1, Node{Kind: KindSwitch, Pos: 0, Cases: []SwitchCase{{0, 1}}, B: 2}),
				blk(11, 1, ret),
				blk(12, 1, Node{Kind: KindCall, A: 1, B: 1}),
			),
		}}, inputs: [][]byte{{0}, {1}}, budgets: []uint64{0, 100}},
		{name: "crash-in-callee", prog: &Program{Funcs: []Func{
			fn(blk(1, 1, Node{Kind: KindCall, A: 1, B: 1}), blk(2, 1, ret)),
			fn(
				blk(10, 1, Node{Kind: KindCompareByte, Pos: 0, Val: 'X', A: 1, B: 2}),
				blk(11, 1, Node{Kind: KindCall, A: 2, B: 2}),
				blk(12, 1, ret),
			),
			fn(blk(20, 1, Node{Kind: KindCrash})),
		}}, inputs: [][]byte{[]byte("X"), []byte("Y")}},
		{name: "hang-in-callee", prog: &Program{Funcs: []Func{
			fn(blk(1, 1, Node{Kind: KindCall, A: 1, B: 1}), blk(2, 1, ret)),
			fn(
				blk(10, 1, Node{Kind: KindCompareByte, Pos: 0, Val: 'H', A: 1, B: 2}),
				blk(11, 1, Node{Kind: KindHang}),
				blk(12, 4, Node{Kind: KindSelfLoop, Pos: 1, Val: 100, A: 3}),
				blk(13, 1, ret),
			),
		}}, inputs: [][]byte{[]byte("H"), []byte("Z\x05"), []byte("Z\x63")}, budgets: []uint64{0, 50}},
		{name: "compare-hook", prog: &Program{Funcs: []Func{fn(
			blk(1, 1, Node{Kind: KindCompareByte, Pos: 0, Val: 0x1ff, A: 1, B: 1}),
			blk(2, 1, Node{Kind: KindCompareWord, Pos: 1, Val: 0xdeadbeef, Width: 4, A: 2, B: 2}),
			blk(3, 1, Node{Kind: KindSwitch, Pos: 5, Cases: []SwitchCase{{7, 3}, {8, 3}, {9, 4}}, B: 4}),
			blk(4, 1, Node{Kind: KindJump, A: 4}),
			blk(5, 1, ret),
		)}}, inputs: [][]byte{nil, {0xff, 0xef, 0xbe, 0xad, 0xde, 9}, {0, 0, 0, 0, 0, 8}}},
		{name: "unknown-kind", prog: &Program{Funcs: []Func{fn(
			blk(1, 1, Node{Kind: KindJump, A: 1}),
			blk(2, 1, Node{Kind: NodeKind(99)}),
		)}}},
		{name: "ring-boundary-with-calls", prog: &Program{Funcs: []Func{
			fn(loop256(1, 1), blk(2, 1, Node{Kind: KindCall, A: 1, B: 2}), loop256(3, 3), loop256(4, 4), blk(5, 1, ret)),
			fn(loop256(10, 1), blk(11, 1, ret)),
		}}, inputs: [][]byte{{255}, {100}}, budgets: []uint64{0, 700}},
		// Costs past 32 bits, including ones whose sum wraps the cycle
		// counter, against budgets on both sides of them.
		{name: "cost-wide", prog: &Program{Funcs: []Func{fn(
			blk(1, 1<<32, Node{Kind: KindJump, A: 1}),
			blk(2, 1<<32+7, Node{Kind: KindSelfLoop, Pos: 0, Val: 4, A: 2}),
			blk(3, 1<<40, Node{Kind: KindJump, A: 3}),
			blk(4, 1<<63, Node{Kind: KindJump, A: 4}),
			blk(5, 1<<63, Node{Kind: KindJump, A: 5}),
			blk(6, ^uint64(0), ret),
		)}}, inputs: [][]byte{{0}, {3}}, budgets: []uint64{0, 1 << 32, 1<<33 + 20, 1<<41 + 1<<35, 1<<63 + 1<<42, ^uint64(0)}},
		// Input positions past 31 bits and below zero: every read observes
		// zero, and the compare hook reports the position unchanged.
		{name: "pos-wide", prog: &Program{Funcs: []Func{fn(
			blk(1, 1, Node{Kind: KindCompareByte, Pos: 1 << 31, Val: 7, A: 1, B: 1}),
			blk(2, 1, Node{Kind: KindCompareByte, Pos: 1 << 40, Val: 0, A: 2, B: 9}),
			blk(3, 1, Node{Kind: KindCompareByte, Pos: -1, Val: 5, A: 3, B: 3}),
			blk(4, 1, Node{Kind: KindCompareByte, Pos: -(1 << 40), Val: 6, A: 4, B: 4}),
			blk(5, 1, Node{Kind: KindCompareWord, Pos: 1<<31 - 2, Val: 0x01020304, Width: 4, A: 5, B: 5}),
			blk(6, 1, Node{Kind: KindCompareWord, Pos: -2, Val: 0x0b0a0000, Width: 4, A: 6, B: 6}),
			blk(7, 1, Node{Kind: KindCompareWord, Pos: 1<<63 - 3, Val: 0x11, Width: 8, A: 7, B: 7}),
			blk(8, 1, Node{Kind: KindCompareWord, Pos: -1 << 63, Val: 0x22, Width: 8, A: 8, B: 8}),
			blk(9, 1, Node{Kind: KindSwitch, Pos: 1 << 33, Cases: []SwitchCase{{4, 11}, {0, 9}}, B: 11}),
			blk(10, 1, Node{Kind: KindSwitch, Pos: -7, Cases: []SwitchCase{{1, 11}, {2, 11}}, B: 10}),
			blk(11, 1, Node{Kind: KindSelfLoop, Pos: -5, Val: 3, A: 11}),
			blk(12, 1, Node{Kind: KindSelfLoop, Pos: 1 << 35, Val: 3, A: 12}),
			blk(13, 1, ret),
		)}}, inputs: [][]byte{nil, {0x0a, 0x0b, 3, 4}, {1, 2, 3, 4, 5, 6, 7, 8, 9}}},
		// Targets and operands past 31 bits: block indexes that would alias
		// valid ones if truncated to 32 bits, and self-loop bounds that are
		// huge or negative as int64.
		{name: "operand-wide", prog: &Program{Funcs: []Func{
			fn(
				blk(1, 1, Node{Kind: KindCompareByte, Pos: 0, Val: 1, A: 1<<32 + 1, B: 1}),
				blk(2, 1, Node{Kind: KindSelfLoop, Pos: 0, Val: 1<<32 + 3, A: 2}),
				blk(3, 1, Node{Kind: KindSelfLoop, Pos: 0, Val: 1 << 63, A: 3}),
				blk(4, 1, Node{Kind: KindSelfLoop, Pos: 0, Val: 1<<63 + 5, A: 4}),
				blk(5, 1, Node{Kind: KindCall, A: 1<<32 + 1, B: 5}),
				blk(6, 1, Node{Kind: KindCall, A: 1, B: 1<<32 + 6}),
				blk(7, 1, ret),
			),
			fn(
				blk(10, 1, Node{Kind: KindSwitch, Pos: 0, Cases: []SwitchCase{{2, 1<<31 + 1}, {3, -(1 << 40)}, {4, 1}}, B: 1 << 31}),
				blk(11, 1, Node{Kind: KindCompareWord, Pos: 1, Val: 1 << 40, Width: 8, A: 2, B: -(1<<31 + 1)}),
				blk(12, 1, Node{Kind: KindJump, A: 1<<32 + 3}),
				blk(13, 1, ret),
			),
		}}, inputs: [][]byte{{0}, {1}, {2}, {4}, {4, 0, 0, 0, 0, 0, 1}, {9}}},
		// Kinds past the last defined one end the run after visiting the
		// block, even inside a call.
		{name: "unknown-kinds", prog: &Program{Funcs: []Func{
			fn(
				blk(1, 1, Node{Kind: KindSwitch, Pos: 0, Cases: []SwitchCase{{1, 1}, {2, 2}, {3, 3}}, B: 4}),
				blk(2, 1, Node{Kind: NodeKind(9)}),
				blk(3, 1, Node{Kind: NodeKind(255)}),
				blk(4, 1, Node{Kind: NodeKind(128), A: 4, B: 4}),
				blk(5, 1, Node{Kind: KindCall, A: 1, B: 5}),
				blk(6, 1, ret),
			),
			fn(blk(10, 1, Node{Kind: KindJump, A: 1}), blk(11, 1, Node{Kind: NodeKind(254), A: 0})),
		}}, inputs: [][]byte{{1}, {2}, {3}, {4}}},
		// An empty function between non-empty ones: calls to it fall
		// through, and targets one past a function's end must not reach
		// the next function's blocks.
		{name: "empty-callee-mid", prog: &Program{Funcs: []Func{
			fn(
				blk(1, 1, Node{Kind: KindCall, A: 2, B: 1}),
				blk(2, 1, Node{Kind: KindCall, A: 1, B: 2}),
				blk(3, 1, Node{Kind: KindCall, A: 3, B: 3}),
				blk(4, 1, Node{Kind: KindCall, A: 4, B: 4}),
				blk(5, 1, Node{Kind: KindCompareByte, Pos: 0, Val: 1, A: 5, B: 6}),
				blk(6, 1, ret),
			),
			{},
			fn(blk(20, 2, Node{Kind: KindCompareByte, Pos: 0, Val: 1, A: 1, B: 2}), blk(21, 2, ret)),
			{},
			fn(blk(40, 3, Node{Kind: KindJump, A: 1}), blk(41, 3, Node{Kind: KindCompareByte, Pos: 0, Val: 2, A: 2, B: 0})),
		}}, inputs: [][]byte{{0}, {1}, {2}}, budgets: []uint64{60, 1000}},
	}
}

// generatedDigest runs every profile's generated program on seeded random
// inputs in both goldenRun modes and digests the golden lines.
func generatedDigest() []string {
	var lines []string
	src := rng.New(0x601d)
	for _, p := range Profiles() {
		prog, err := Generate(p.Spec(0.02))
		if err != nil {
			return append(lines, fmt.Sprintf("%s: %v", p.Name, err))
		}
		ip := NewInterp(prog)
		h := sha256.New()
		for trial := 0; trial < 40; trial++ {
			input := make([]byte, src.Intn(2*prog.InputLen+1))
			for i := range input {
				input[i] = byte(src.Uint32())
			}
			budget := uint64(0)
			if trial%4 == 3 {
				budget = uint64(1 + src.Intn(400))
			}
			for _, l := range goldenRun(ip, input, budget) {
				fmt.Fprintln(h, l)
			}
		}
		lines = append(lines, fmt.Sprintf("generated %s: sha=%s", p.Name, hex.EncodeToString(h.Sum(nil)[:12])))
	}
	return lines
}

func interpGolden() []byte {
	var out bytes.Buffer
	for _, c := range goldenCases() {
		inputs := c.inputs
		if inputs == nil {
			inputs = [][]byte{nil}
		}
		budgets := c.budgets
		if budgets == nil {
			budgets = []uint64{0}
		}
		fmt.Fprintf(&out, "%s\n", c.name)
		ip := NewInterp(c.prog)
		for _, in := range inputs {
			for _, b := range budgets {
				for _, l := range goldenRun(ip, in, b) {
					fmt.Fprintln(&out, l)
				}
				res, tokens := recordRun(ip, in, b, true)
				fmt.Fprintf(&out, "  in=%x budget=%d batch+blind: %s events=%s\n",
					in, b, formatResult(res), abbreviate(tokens))
			}
		}
	}
	for _, l := range generatedDigest() {
		fmt.Fprintln(&out, l)
	}
	return out.Bytes()
}

// TestInterpGolden compares the interpreter's results and event streams
// with the recorded golden file, then checks the call-blind mode against
// the one with call events on every hand-built case and on generated
// programs.
func TestInterpGolden(t *testing.T) {
	t.Run("call-blind", testCallBlind)
	got := interpGolden()
	if *updateGolden {
		if err := os.WriteFile(interpGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(interpGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d differs:\n got: %s\nwant: %s", interpGoldenPath, i+1, g, w)
		}
	}
}

func testCallBlind(t *testing.T) {
	for _, c := range goldenCases() {
		inputs := c.inputs
		if inputs == nil {
			inputs = [][]byte{nil}
		}
		budgets := c.budgets
		if budgets == nil {
			budgets = []uint64{0}
		}
		ip := NewInterp(c.prog)
		for _, in := range inputs {
			for _, b := range budgets {
				if msg := callBlindMismatch(ip, in, b); msg != "" {
					t.Errorf("%s in=%x budget=%d: %s", c.name, in, b, msg)
				}
			}
		}
	}
	src := rng.New(0xb11d)
	for _, p := range Profiles() {
		prog, err := Generate(p.Spec(0.02))
		if err != nil {
			t.Fatal(err)
		}
		ip := NewInterp(prog)
		for trial := 0; trial < 20; trial++ {
			input := make([]byte, src.Intn(2*prog.InputLen+1))
			for i := range input {
				input[i] = byte(src.Uint32())
			}
			if msg := callBlindMismatch(ip, input, 0); msg != "" {
				t.Errorf("generated %s trial %d: %s", p.Name, trial, msg)
			}
		}
	}
}
