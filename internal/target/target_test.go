package target_test

import (
	"reflect"
	"testing"

	"github.com/bigmap/bigmap/internal/rng"
	"github.com/bigmap/bigmap/internal/target"
)

// traceTracer records the visit stream.
type traceTracer struct {
	ids []uint32
}

func (t *traceTracer) VisitBatch(bs []uint32) { t.ids = append(t.ids, bs...) }
func (t *traceTracer) EnterCall(uint32)       {}
func (t *traceTracer) LeaveCall()             {}
func (t *traceTracer) CallBlind() bool        { return true }

// goldenSpec is the fixed program every pinning test below runs against.
var goldenSpec = target.GenSpec{
	Name: "golden", Seed: 12, NumFuncs: 2, BlocksPerFunc: 6,
	InputLen: 16, BranchFraction: 0.5,
	MagicCompares: 1, MagicWidth: 2, BonusBlocks: 2,
	Switches: 1, SwitchFanout: 3, Loops: 1, LoopMax: 4,
	CrashSites: 1, CrashDepth: 1,
}

func goldenInput() []byte {
	input := make([]byte, 16)
	for i := range input {
		input[i] = byte(i * 7)
	}
	return input
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := target.Generate(goldenSpec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := target.Generate(goldenSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same spec generated different programs")
	}
	spec := goldenSpec
	spec.Seed++
	c, err := target.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds generated identical programs")
	}
}

func TestGenerateUniqueNonzeroIDs(t *testing.T) {
	prog, err := target.Generate(goldenSpec)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint32]bool{}
	for fi, f := range prog.Funcs {
		for bi, b := range f.Blocks {
			if b.ID == 0 {
				t.Fatalf("func %d block %d has zero ID", fi, bi)
			}
			if seen[b.ID] {
				t.Fatalf("duplicate block ID %#x", b.ID)
			}
			seen[b.ID] = true
		}
	}
}

func TestInterpDeterministicTrace(t *testing.T) {
	prog, err := target.Generate(goldenSpec)
	if err != nil {
		t.Fatal(err)
	}
	ip := target.NewInterp(prog)
	input := goldenInput()
	var first traceTracer
	res1 := ip.Run(input, &first, 0)
	for i := 0; i < 5; i++ {
		var again traceTracer
		res2 := ip.Run(input, &again, 0)
		if !reflect.DeepEqual(res1, res2) {
			t.Fatalf("run %d: result drifted: %+v vs %+v", i, res1, res2)
		}
		if !reflect.DeepEqual(first.ids, again.ids) {
			t.Fatalf("run %d: visit trace drifted", i)
		}
	}
}

// TestGoldenTrace pins the exact interpreter behavior for a fixed generated
// program and input, so future coverage-map work cannot silently change the
// semantics every backend is measured against. If an intentional generator
// or interpreter change lands, regenerate these constants and say so in the
// commit.
func TestGoldenTrace(t *testing.T) {
	prog, err := target.Generate(goldenSpec)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := prog.NumBlocks(), 15; got != want {
		t.Errorf("NumBlocks = %d, want %d", got, want)
	}
	if got, want := prog.StaticEdges(), 22; got != want {
		t.Errorf("StaticEdges = %d, want %d", got, want)
	}
	if got, want := len(prog.CrashSites()), 1; got != want {
		t.Errorf("CrashSites = %d, want %d", got, want)
	}

	coord := map[uint32]string{}
	for fi, f := range prog.Funcs {
		for bi, b := range f.Blocks {
			coord[b.ID] = "f" + itoa(fi) + ".b" + itoa(bi)
		}
	}
	var tr traceTracer
	res := target.NewInterp(prog).Run(goldenInput(), &tr, 0)
	if res.Status != target.StatusOK {
		t.Fatalf("status = %v, want ok", res.Status)
	}
	if res.Cycles != 14 || res.Blocks != 14 {
		t.Errorf("cycles/blocks = %d/%d, want 14/14", res.Cycles, res.Blocks)
	}

	wantCoords := []string{
		"f0.b0", "f1.b0", "f1.b1", "f1.b2", "f1.b3", "f1.b3", "f1.b3",
		"f1.b4", "f1.b6", "f0.b1", "f0.b2", "f0.b3", "f0.b4", "f0.b7",
	}
	var gotCoords []string
	for _, id := range tr.ids {
		gotCoords = append(gotCoords, coord[id])
	}
	if !reflect.DeepEqual(gotCoords, wantCoords) {
		t.Errorf("block trace = %v, want %v", gotCoords, wantCoords)
	}

	// The raw ID stream (hashed) additionally pins the generator's ID
	// assignment, which all coverage keys derive from.
	h := uint64(14695981039346656037)
	for _, id := range tr.ids {
		for s := 0; s < 32; s += 8 {
			h ^= uint64(byte(id >> s))
			h *= 1099511628211
		}
	}
	if want := uint64(0x9481b430616cbb18); h != want {
		t.Errorf("trace hash = %#x, want %#x", h, want)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestCycleBudgetHang hand-builds an infinite loop (a jump to itself) and
// checks the budget terminates it as a hang with the budget fully consumed.
func TestCycleBudgetHang(t *testing.T) {
	prog := &target.Program{
		Name:     "spin",
		InputLen: 4,
		Funcs: []target.Func{{Blocks: []target.Block{
			{ID: 7, Cost: 1, Node: target.Node{Kind: target.KindJump, A: 0}},
		}}},
	}
	var tr traceTracer
	res := target.NewInterp(prog).Run([]byte{1}, &tr, 100)
	if res.Status != target.StatusHang {
		t.Fatalf("status = %v, want hang", res.Status)
	}
	if res.Cycles != 100 {
		t.Errorf("cycles = %d, want the full budget 100", res.Cycles)
	}
	if len(tr.ids) == 0 {
		t.Error("partial coverage before the kill was not reported")
	}
}

// TestHangNodeConsumesBudget: a KindHang block behaves like an infinite loop
// under a timeout — whole budget gone, no further coverage.
func TestHangNodeConsumesBudget(t *testing.T) {
	prog := &target.Program{
		Name:     "hang",
		InputLen: 4,
		Funcs: []target.Func{{Blocks: []target.Block{
			{ID: 3, Cost: 1, Node: target.Node{Kind: target.KindJump, A: 1}},
			{ID: 4, Cost: 1, Node: target.Node{Kind: target.KindHang}},
		}}},
	}
	var tr traceTracer
	res := target.NewInterp(prog).Run(nil, &tr, 5000)
	if res.Status != target.StatusHang {
		t.Fatalf("status = %v, want hang", res.Status)
	}
	if res.Cycles != 5000 {
		t.Errorf("cycles = %d, want 5000", res.Cycles)
	}
	if want := []uint32{3, 4}; !reflect.DeepEqual(tr.ids, want) {
		t.Errorf("trace = %v, want %v", tr.ids, want)
	}
}

func TestCrashStatus(t *testing.T) {
	prog := &target.Program{
		Name:     "boom",
		InputLen: 4,
		Funcs: []target.Func{{Blocks: []target.Block{
			{ID: 11, Cost: 1, Node: target.Node{Kind: target.KindJump, A: 1}},
			{ID: 22, Cost: 1, Node: target.Node{Kind: target.KindCrash}},
		}}},
	}
	res := target.NewInterp(prog).Run(nil, target.NopTracer{}, 0)
	if res.Status != target.StatusCrash {
		t.Fatalf("status = %v, want crash", res.Status)
	}
	if res.CrashSite != 22 {
		t.Errorf("crash site = %d, want 22", res.CrashSite)
	}
	if res.Status.String() != "crash" {
		t.Errorf("status string = %q", res.Status.String())
	}
}

// TestCrashStackReportsCallSites: a crash inside a callee carries the active
// call-site IDs, the bucket key crash dedup uses.
func TestCrashStackReportsCallSites(t *testing.T) {
	prog := &target.Program{
		Name:     "deep",
		InputLen: 4,
		Funcs: []target.Func{
			{Blocks: []target.Block{
				{ID: 1, Cost: 1, Node: target.Node{Kind: target.KindCall, A: 1, B: 1}},
				{ID: 2, Cost: 1, Node: target.Node{Kind: target.KindReturn}},
			}},
			{Blocks: []target.Block{
				{ID: 3, Cost: 1, Node: target.Node{Kind: target.KindCrash}},
			}},
		},
	}
	res := target.NewInterp(prog).Run(nil, target.NopTracer{}, 0)
	if res.Status != target.StatusCrash || res.CrashSite != 3 {
		t.Fatalf("result = %+v, want crash at 3", res)
	}
	if want := []uint32{1}; !reflect.DeepEqual(res.Stack, want) {
		t.Errorf("stack = %v, want %v", res.Stack, want)
	}
}

// TestCompareHookFiresOnlyOnMismatch pins the cmplog observation channel:
// failed comparisons report their wanted operand, successful ones stay
// invisible.
func TestCompareHookFiresOnlyOnMismatch(t *testing.T) {
	prog := &target.Program{
		Name:     "cmp",
		InputLen: 8,
		Funcs: []target.Func{{Blocks: []target.Block{
			{ID: 1, Cost: 1, Node: target.Node{Kind: target.KindCompareByte, Pos: 0, Val: 0x41, A: 1, B: 1}},
			{ID: 2, Cost: 1, Node: target.Node{Kind: target.KindCompareWord, Pos: 1, Val: 0xdeadbeef, Width: 4, A: 2, B: 2}},
			{ID: 3, Cost: 1, Node: target.Node{Kind: target.KindReturn}},
		}}},
	}
	ip := target.NewInterp(prog)
	var seen []target.Compare
	ip.SetCompareHook(func(c target.Compare) { seen = append(seen, c) })

	// Everything mismatches: both compares report.
	ip.Run(make([]byte, 8), target.NopTracer{}, 0)
	want := []target.Compare{
		{Pos: 0, Val: 0x41, Width: 1},
		{Pos: 1, Val: 0xdeadbeef, Width: 4},
	}
	if !reflect.DeepEqual(seen, want) {
		t.Fatalf("hook observations = %+v, want %+v", seen, want)
	}

	// Everything matches: the hook stays silent.
	seen = nil
	input := []byte{0x41, 0xef, 0xbe, 0xad, 0xde, 0, 0, 0}
	res := ip.Run(input, target.NopTracer{}, 0)
	if res.Status != target.StatusOK {
		t.Fatalf("status = %v", res.Status)
	}
	if len(seen) != 0 {
		t.Fatalf("hook fired on successful compares: %+v", seen)
	}
}

// TestShortInputZeroPadded: reads past the input end observe zero bytes.
func TestShortInputZeroPadded(t *testing.T) {
	prog := &target.Program{
		Name:     "pad",
		InputLen: 8,
		Funcs: []target.Func{{Blocks: []target.Block{
			{ID: 1, Cost: 1, Node: target.Node{Kind: target.KindCompareWord, Pos: 6, Val: 0, Width: 4, A: 1, B: 2}},
			{ID: 2, Cost: 1, Node: target.Node{Kind: target.KindCrash}},
			{ID: 3, Cost: 1, Node: target.Node{Kind: target.KindReturn}},
		}}},
	}
	// One byte of input: positions 6..9 all read zero, so the compare
	// against zero matches and the run avoids the mismatch-side crash.
	res := target.NewInterp(prog).Run([]byte{0xff}, target.NopTracer{}, 0)
	if res.Status != target.StatusCrash {
		t.Fatalf("status = %v, want crash via the zero-match edge", res.Status)
	}
	if res.CrashSite != 2 {
		t.Errorf("crash site = %d, want 2", res.CrashSite)
	}
}

// TestZeroInputBenign: every profile's program must run an all-zero input to
// completion (the generator guards crash/hang regions with nonzero bytes) —
// the property SampleSeeds' fallback and the fuzzer's initial corpus rely on.
func TestZeroInputBenign(t *testing.T) {
	all := append(target.Profiles(), target.CompositionProfiles()...)
	for _, p := range all {
		prog, err := target.Generate(p.Spec(0.01))
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		res := target.NewInterp(prog).Run(make([]byte, prog.InputLen), target.NopTracer{}, 0)
		if res.Status != target.StatusOK {
			t.Errorf("%s: zero input status = %v, want ok", p.Name, res.Status)
		}
	}
}

func TestSampleSeedsBenignAndDeterministic(t *testing.T) {
	p, ok := target.ProfileByName("zlib")
	if !ok {
		t.Fatal("zlib profile missing")
	}
	prog, err := target.Generate(p.Spec(0.05))
	if err != nil {
		t.Fatal(err)
	}
	ip := target.NewInterp(prog)
	seeds := prog.SampleSeeds(rng.New(99), 8)
	if len(seeds) != 8 {
		t.Fatalf("got %d seeds, want 8", len(seeds))
	}
	for i, s := range seeds {
		if res := ip.Run(s, target.NopTracer{}, 0); res.Status != target.StatusOK {
			t.Errorf("seed %d: status = %v, want ok", i, res.Status)
		}
	}
	again := prog.SampleSeeds(rng.New(99), 8)
	if !reflect.DeepEqual(seeds, again) {
		t.Error("SampleSeeds is not deterministic in its rng source")
	}
}

func TestProfileRegistry(t *testing.T) {
	if n := len(target.Profiles()); n != 19 {
		t.Errorf("Table II profiles = %d, want 19", n)
	}
	if n := len(target.CompositionProfiles()); n != 13 {
		t.Errorf("composition profiles = %d, want 13", n)
	}
	if _, ok := target.ProfileByName("zlib"); !ok {
		t.Error("ProfileByName(zlib) missing")
	}
	if _, ok := target.ProfileByName("no-such-benchmark"); ok {
		t.Error("ProfileByName invented a benchmark")
	}
	// Table III paper record must exist for every composition profile and
	// average to the paper's bottom line (264 -> 352 crashes).
	var sumSmall, sumBig int
	for _, p := range target.CompositionProfiles() {
		pair, ok := target.TableIIICrashes[p.Name]
		if !ok {
			t.Errorf("TableIIICrashes missing %q", p.Name)
			continue
		}
		sumSmall += pair[0]
		sumBig += pair[1]
	}
	n := len(target.CompositionProfiles())
	if sumSmall/n != 264 || sumSmall%n != 0 {
		t.Errorf("small-map crash average = %d.%d, want exactly 264", sumSmall/n, sumSmall%n)
	}
	if sumBig/n != 352 || sumBig%n != 0 {
		t.Errorf("big-map crash average = %d.%d, want exactly 352", sumBig/n, sumBig%n)
	}
}

func TestCrashWitnessReachesPlantedCrash(t *testing.T) {
	p, ok := target.ProfileByName("gvn")
	if !ok {
		t.Fatal("gvn profile missing")
	}
	prog, err := target.Generate(p.Spec(0.02))
	if err != nil {
		t.Fatal(err)
	}
	ip := target.NewInterp(prog)
	src := rng.New(5)
	found := 0
	for attempt := 0; attempt < 2000 && found == 0; attempt++ {
		w, ok := prog.SynthesizeCrashWitness(src)
		if !ok {
			continue
		}
		if ip.Run(w, target.NopTracer{}, 0).Status == target.StatusCrash {
			found++
		}
	}
	if found == 0 {
		t.Fatal("no verified crash witness in 2000 attempts")
	}
}
