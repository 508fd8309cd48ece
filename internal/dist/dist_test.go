package dist

import (
	"bytes"
	"errors"
	"testing"

	"github.com/bigmap/bigmap/internal/core"
	"github.com/bigmap/bigmap/internal/fuzzer"
	"github.com/bigmap/bigmap/internal/rng"
	"github.com/bigmap/bigmap/internal/target"
)

func testDelta(t *testing.T, size int, hits map[int]byte) []byte {
	t.Helper()
	cur := make([]byte, size)
	for i := range cur {
		cur[i] = 0xFF
	}
	for pos, b := range hits {
		cur[pos] &= b
	}
	return core.EncodeVirginDelta(core.DiffVirginBytes(nil, cur))
}

func TestHubDedupAndUnion(t *testing.T) {
	h, err := NewHub(64, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"a", "b"} {
		info, err := h.Join(w)
		if err != nil || info.LastSeq != 0 || info.Cursor != 0 {
			t.Fatalf("join %s: %+v, %v", w, info, err)
		}
	}
	r1, err := h.Push("a", Batch{
		Seq:     1,
		Inputs:  [][]byte{[]byte("one"), []byte("two")},
		Crashes: []Crash{{Key: 9, Site: 3, StackDepth: 2, Input: []byte("boom")}},
		Delta:   testDelta(t, 64, map[int]byte{0: 0x7F, 5: 0x00}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if r1.NewInputs != 2 || r1.DupInputs != 0 || r1.NewCrashes != 1 || r1.UnionDiscovered != 2 {
		t.Fatalf("receipt 1: %+v", r1)
	}
	// b pushes one duplicate, one new input, the same crash bucket, and a
	// delta that overlaps one word and adds another key.
	r2, err := h.Push("b", Batch{
		Seq:     1,
		Inputs:  [][]byte{[]byte("two"), []byte("three")},
		Crashes: []Crash{{Key: 9, Site: 3, StackDepth: 2, Input: []byte("boom")}},
		Delta:   testDelta(t, 64, map[int]byte{5: 0x00, 9: 0xFE}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if r2.NewInputs != 1 || r2.DupInputs != 1 || r2.NewCrashes != 0 || r2.UnionDiscovered != 3 {
		t.Fatalf("receipt 2: %+v", r2)
	}
	// a pulls only b's genuinely new input; b pulls a's two.
	gotA, err := h.Pull("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(gotA) != 1 || string(gotA[0].Input) != "three" || gotA[0].Hash != HashInput([]byte("three")) {
		t.Fatalf("a pulled %+v", gotA)
	}
	gotB, err := h.Pull("b")
	if err != nil {
		t.Fatal(err)
	}
	if len(gotB) != 2 || string(gotB[0].Input) != "one" || string(gotB[1].Input) != "two" {
		t.Fatalf("b pulled %+v", gotB)
	}
	// Cursors advanced: immediate re-pull is empty.
	if again, _ := h.Pull("a"); len(again) != 0 {
		t.Fatalf("re-pull delivered %d inputs", len(again))
	}
	st, err := h.Stats()
	if err != nil {
		t.Fatal(err)
	}
	want := Stats{MapSize: 64, Inputs: 3, Crashes: 1, Workers: 2,
		Batches: 2, DedupHits: 1, DeltaWords: 3, UnionDiscovered: 3}
	if st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
}

func TestHubSeqProtocol(t *testing.T) {
	h, err := NewHub(64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Push("ghost", Batch{Seq: 1}); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("push before join: %v", err)
	}
	if _, err := h.Pull("ghost"); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("pull before join: %v", err)
	}
	if _, err := h.Join("w"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Push("w", Batch{Seq: 3}); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("gap: %v", err)
	}
	r1, err := h.Push("w", Batch{Seq: 1, Inputs: [][]byte{[]byte("x")}})
	if err != nil {
		t.Fatal(err)
	}
	// Replaying the accepted sequence returns the stored receipt and does
	// not double-count.
	replay, err := h.Push("w", Batch{Seq: 1, Inputs: [][]byte{[]byte("x")}})
	if err != nil || replay != r1 {
		t.Fatalf("replay: %+v, %v (want %+v)", replay, err, r1)
	}
	st, _ := h.Stats()
	if st.Inputs != 1 || st.Batches != 1 {
		t.Fatalf("replay double-counted: %+v", st)
	}
	// Re-join resumes the chain.
	info, err := h.Join("w")
	if err != nil || info.LastSeq != 1 {
		t.Fatalf("re-join: %+v, %v", info, err)
	}
	// A delta sized for a different map is rejected without burning the seq.
	if _, err := h.Push("w", Batch{Seq: 2, Delta: testDelta(t, 128, map[int]byte{0: 0})}); !errors.Is(err, ErrSizeMismatch) {
		t.Fatalf("size mismatch: %v", err)
	}
	if _, err := h.Push("w", Batch{Seq: 2}); err != nil {
		t.Fatalf("seq burned by rejected batch: %v", err)
	}
}

func TestHubRejectsCorruptDelta(t *testing.T) {
	h, err := NewHub(64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Join("w"); err != nil {
		t.Fatal(err)
	}
	bad := testDelta(t, 64, map[int]byte{1: 0})
	bad[len(bad)-1] ^= 1
	if _, err := h.Push("w", Batch{Seq: 1, Delta: bad}); !errors.Is(err, core.ErrDeltaCorrupt) {
		t.Fatalf("corrupt delta: %v", err)
	}
}

func workerFuzzer(t *testing.T, seed uint64) *fuzzer.Fuzzer {
	t.Helper()
	prog, err := target.Generate(target.GenSpec{
		Name:           "dist",
		Seed:           21,
		NumFuncs:       8,
		BlocksPerFunc:  16,
		InputLen:       48,
		BranchFraction: 0.6,
		CrashSites:     2,
		CrashDepth:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := fuzzer.New(prog, fuzzer.Config{Seed: seed, Scheme: fuzzer.SchemeBigMap})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range prog.SampleSeeds(rng.New(55), 4) {
		if err := f.AddSeed(s); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func TestWorkerSync(t *testing.T) {
	h, err := NewHub(core.MapSize64K, nil)
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := workerFuzzer(t, 1), workerFuzzer(t, 2)
	wa, err := NewWorker(fa, "a", h, core.MapSize64K)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := NewWorker(fb, "b", h, core.MapSize64K)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if err := fa.RunExecs(2000); err != nil {
			t.Fatal(err)
		}
		if err := fb.RunExecs(2000); err != nil {
			t.Fatal(err)
		}
		for _, w := range []*Worker{wa, wb} {
			if _, err := w.Push(); err != nil {
				t.Fatal(err)
			}
		}
		for _, w := range []*Worker{wa, wb} {
			if _, err := w.Pull(); err != nil {
				t.Fatal(err)
			}
		}
	}
	rcpt, err := wa.Push()
	if err != nil {
		t.Fatal(err)
	}
	st, err := h.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Inputs < fa.Queue().Len() {
		t.Fatalf("store has %d inputs, worker a alone queued %d", st.Inputs, fa.Queue().Len())
	}
	if st.UnionDiscovered < fa.Stats().EdgesDiscovered {
		t.Fatalf("union %d below instance coverage %d", st.UnionDiscovered, fa.Stats().EdgesDiscovered)
	}
	if rcpt.UnionDiscovered != st.UnionDiscovered {
		t.Fatalf("receipt union %d != stats union %d", rcpt.UnionDiscovered, st.UnionDiscovered)
	}
	// The second push of an unchanged worker publishes nothing.
	r2, err := wa.Push()
	if err != nil {
		t.Fatal(err)
	}
	if r2.NewInputs+r2.DupInputs+r2.DeltaWords != 0 {
		t.Fatalf("idle push published %+v", r2)
	}
}

// flakySyncer fails the first Push attempt after the store accepted it
// (lost response), exercising the worker's pending-batch replay path.
type flakySyncer struct {
	*Hub
	failNext bool
}

func (s *flakySyncer) Push(worker string, b Batch) (Receipt, error) {
	rcpt, err := s.Hub.Push(worker, b)
	if err != nil {
		return rcpt, err
	}
	if s.failNext {
		s.failNext = false
		return Receipt{}, errors.New("injected: response lost")
	}
	return rcpt, nil
}

func TestWorkerPushRetryIsLossless(t *testing.T) {
	h, err := NewHub(core.MapSize64K, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs := &flakySyncer{Hub: h, failNext: true}
	f := workerFuzzer(t, 3)
	w, err := NewWorker(f, "w", fs, core.MapSize64K)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.RunExecs(2000); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Push(); err == nil {
		t.Fatal("injected failure did not surface")
	}
	// The retry replays the pending batch; the store answers with the
	// stored receipt and nothing is lost or double-counted.
	rcpt, err := w.Push()
	if err != nil {
		t.Fatal(err)
	}
	st, _ := h.Stats()
	if st.Batches != 1 || st.Inputs != rcpt.NewInputs {
		t.Fatalf("retry diverged: stats %+v, receipt %+v", st, rcpt)
	}
	if rcpt.NewInputs != f.Queue().Len() {
		t.Fatalf("store holds %d of %d queue entries", rcpt.NewInputs, f.Queue().Len())
	}
	// Worker state committed exactly once: an idle re-push is empty.
	r2, err := w.Push()
	if err != nil {
		t.Fatal(err)
	}
	if r2.NewInputs+r2.DupInputs+r2.DeltaWords != 0 {
		t.Fatalf("post-retry push published %+v", r2)
	}
}

func TestHubUnionMatchesDirectMerge(t *testing.T) {
	// Pushing deltas through the hub must land the same union state as
	// merging the workers' virgin maps directly.
	h, err := NewHub(core.MapSize64K, nil)
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := workerFuzzer(t, 1), workerFuzzer(t, 2)
	wa, _ := NewWorker(fa, "a", h, core.MapSize64K)
	wb, _ := NewWorker(fb, "b", h, core.MapSize64K)
	for _, f := range []*fuzzer.Fuzzer{fa, fb} {
		if err := f.RunExecs(3000); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range []*Worker{wa, wb} {
		if _, err := w.Push(); err != nil {
			t.Fatal(err)
		}
	}
	direct, err := core.NewLockedVirginUnion(core.MapSize64K)
	if err != nil {
		t.Fatal(err)
	}
	fa.MergeVirginInto(direct)
	fb.MergeVirginInto(direct)
	if !bytes.Equal(h.UnionSnapshot(), direct.Snapshot()) {
		t.Fatal("hub union diverged from direct merge")
	}
	st, _ := h.Stats()
	if st.UnionDiscovered != direct.CountDiscovered() {
		t.Fatalf("union count %d != direct %d", st.UnionDiscovered, direct.CountDiscovered())
	}
}

// cursorJournal is a Journal whose cursor saves fail while fail is set.
type cursorJournal struct{ fail bool }

func (j *cursorJournal) Commit(Commit) error { return nil }

func (j *cursorJournal) SaveCursors(map[string]JoinInfo) error {
	if j.fail {
		return errors.New("disk full")
	}
	return nil
}

// TestHubCursorSaveFailureChangesNothing: a Join or Pull whose cursor save
// fails is undone — the worker is not registered, the pull cursor does not
// move — so the retry delivers exactly what the failed call would have.
func TestHubCursorSaveFailureChangesNothing(t *testing.T) {
	j := &cursorJournal{}
	h, err := NewJournaledHub(64, nil, j)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"a", "b"} {
		if _, err := h.Join(w); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.Push("a", Batch{Seq: 1, Inputs: [][]byte{[]byte("x")}}); err != nil {
		t.Fatal(err)
	}
	j.fail = true
	if _, err := h.Pull("b"); err == nil {
		t.Fatal("pull succeeded without saving its cursor")
	}
	if _, err := h.Join("c"); err == nil {
		t.Fatal("join succeeded without saving the cursors")
	}
	j.fail = false
	got, err := h.Pull("b")
	if err != nil || len(got) != 1 || string(got[0].Input) != "x" {
		t.Fatalf("pull after a failed save: %+v, %v", got, err)
	}
	if st, _ := h.Stats(); st.Workers != 2 {
		t.Fatalf("workers = %d after a failed join, want 2", st.Workers)
	}
}
