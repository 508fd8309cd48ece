package fuzzer

import (
	"testing"

	"github.com/bigmap/bigmap/internal/corpus"
	"github.com/bigmap/bigmap/internal/target"
)

// trimTarget builds a program that reads only the first 8 input bytes, so
// any longer seed carries pure padding the trim stage should remove.
func trimTarget(t *testing.T) *target.Program {
	t.Helper()
	blocks := make([]target.Block, 0, 10)
	for i := 0; i < 8; i++ {
		blocks = append(blocks, target.Block{
			ID:   uint32(100 + i),
			Cost: 1,
			Node: target.Node{
				Kind: target.KindCompareByte,
				Pos:  i,
				Val:  uint64('A' + i),
				A:    i + 1, // matched: next check
				B:    8,     // mismatched: bail to Return
			},
		})
	}
	blocks = append(blocks, target.Block{ID: 200, Cost: 1, Node: target.Node{Kind: target.KindReturn}})
	return &target.Program{Name: "trim", InputLen: 8, Funcs: []target.Func{{Blocks: blocks}}}
}

func TestTrimRemovesPadding(t *testing.T) {
	prog := trimTarget(t)
	f, err := New(prog, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A seed with 8 meaningful bytes followed by 120 bytes of padding.
	seed := make([]byte, 128)
	copy(seed, "ABCDEFGH")
	if err := f.AddSeed(seed); err != nil {
		t.Fatal(err)
	}
	e := f.Queue().Get(0)
	if len(e.Input) != 128 {
		t.Fatalf("seed length %d before trim", len(e.Input))
	}
	origHash := e.PathHash

	f.trim(e)

	if len(e.Input) >= 128 {
		t.Errorf("trim did not shrink the input (len %d)", len(e.Input))
	}
	// The trimmed input must still execute the same path.
	_, hash := f.runForHash(e.Input)
	if hash != origHash {
		t.Error("trim changed the execution path")
	}
	// The meaningful prefix must survive.
	if string(e.Input[:8]) != "ABCDEFGH" {
		t.Errorf("trim corrupted the meaningful prefix: %q", e.Input[:8])
	}
}

func TestTrimSkipsTinyInputs(t *testing.T) {
	prog := trimTarget(t)
	f, err := New(prog, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := &corpus.Entry{Input: []byte("abc")}
	before := f.Execs()
	f.trim(e)
	if f.Execs() != before {
		t.Error("trim spent executions on a tiny input")
	}
	if string(e.Input) != "abc" {
		t.Error("trim modified a tiny input")
	}
}

func TestTrimRespectsBudget(t *testing.T) {
	prog := trimTarget(t)
	f, err := New(prog, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	seed := make([]byte, 4096)
	copy(seed, "ABCDEFGH")
	if err := f.AddSeed(seed); err != nil {
		t.Fatal(err)
	}
	e := f.Queue().Get(0)
	before := f.Execs()
	f.trim(e)
	spent := f.Execs() - before
	if spent > maxTrimExecs+2 {
		t.Errorf("trim spent %d execs, budget is %d", spent, maxTrimExecs)
	}
}

func TestStepTrimsNewEntriesOnce(t *testing.T) {
	prog := trimTarget(t)
	f, err := New(prog, Config{Seed: 2, HavocRounds: 4, SpliceRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	seed := make([]byte, 64)
	copy(seed, "ABCDEFGH")
	if err := f.AddSeed(seed); err != nil {
		t.Fatal(err)
	}
	if err := f.Step(); err != nil {
		t.Fatal(err)
	}
	e := f.Queue().Get(0)
	if !e.WasTrimmed {
		t.Error("Step did not trim the entry")
	}
	if len(e.Input) >= 64 {
		t.Errorf("entry not shrunk by Step (len %d)", len(e.Input))
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 64: 64, 65: 128, 1000: 1024}
	for in, want := range cases {
		if got := nextPow2(in); got != want {
			t.Errorf("nextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}
