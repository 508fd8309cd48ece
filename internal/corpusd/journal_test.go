package corpusd

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/bigmap/bigmap/internal/dist"
)

var errInjected = errors.New("injected journal failure")

// failingJournal is a campaign's real journal with its commit failing at
// batch failAt (1-based).
type failingJournal struct {
	*journal
	failAt, commits int
}

func (f *failingJournal) Commit(c dist.Commit) error {
	f.commits++
	if f.commits == f.failAt {
		return errInjected
	}
	return f.journal.Commit(c)
}

// TestFailedCommitLeavesCampaignUnchanged pins "persist before commit": a
// batch the journal fails to persist is rejected with nothing of it visible
// — stats, union, crashes and the next pull are what they were before the
// push — and the same sequence number is accepted on retry, after which the
// ledger, the live campaign and a recovered one all agree.
func TestFailedCommitLeavesCampaignUnchanged(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j, err := createJournal(filepath.Join(dir, "c"), "c", 64)
	if err != nil {
		t.Fatal(err)
	}
	hub, err := dist.NewJournaledHub(64, nil, &failingJournal{journal: j, failAt: 3})
	if err != nil {
		t.Fatal(err)
	}
	s.campaigns["c"] = &campaign{hub: hub, journal: j}
	for _, w := range []string{"a", "b"} {
		if _, err := s.Join("c", w); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Push("c", "a", dist.Batch{
		Seq:    1,
		Inputs: [][]byte{[]byte("one"), []byte("two")},
		Delta:  testDelta(t, 64, map[int]byte{0: 0x7F}),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Push("c", "b", dist.Batch{Seq: 1, Inputs: [][]byte{[]byte("two"), []byte("three")}}); err != nil {
		t.Fatal(err)
	}
	before, err := s.Stats("c")
	if err != nil {
		t.Fatal(err)
	}
	unionBefore, err := s.UnionSnapshot("c")
	if err != nil {
		t.Fatal(err)
	}

	failed := dist.Batch{
		Seq:     2,
		Inputs:  [][]byte{[]byte("four"), []byte("one")},
		Crashes: []dist.Crash{{Key: 5, Site: 1, StackDepth: 1, Input: []byte("boom")}},
		Delta:   testDelta(t, 64, map[int]byte{0: 0x3F, 9: 0xFE}),
	}
	if _, err := s.Push("c", "a", failed); !errors.Is(err, errInjected) {
		t.Fatalf("push with failing journal: %v", err)
	}
	after, err := s.Stats("c")
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatalf("stats after failed commit %+v, want %+v", after, before)
	}
	unionAfter, err := s.UnionSnapshot("c")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(unionAfter, unionBefore) {
		t.Fatal("union moved on a failed commit")
	}
	if crashes, err := s.Crashes("c"); err != nil || len(crashes) != 0 {
		t.Fatalf("crashes after failed commit: %+v, %v", crashes, err)
	}
	pulled, err := s.Pull("c", "b")
	if err != nil {
		t.Fatal(err)
	}
	if len(pulled) != 2 || string(pulled[0].Input) != "one" || string(pulled[1].Input) != "two" {
		t.Fatalf("b pulled %+v, want only a's first batch", pulled)
	}
	if records, err := s.Ledger("c"); err != nil || len(records) != 2 {
		t.Fatalf("ledger after failed commit: %d records, %v", len(records), err)
	}

	rcpt, err := s.Push("c", "a", failed)
	if err != nil {
		t.Fatalf("same-seq retry: %v", err)
	}
	if rcpt.Seq != 2 || rcpt.NewInputs != 1 || rcpt.DupInputs != 1 || rcpt.NewCrashes != 1 {
		t.Fatalf("retry receipt %+v", rcpt)
	}
	pulled, err = s.Pull("c", "b")
	if err != nil || len(pulled) != 1 || string(pulled[0].Input) != "four" {
		t.Fatalf("b pulled %+v, %v after the retry", pulled, err)
	}
	records, err := s.Ledger("c")
	if err != nil || len(records) != 3 {
		t.Fatalf("ledger after retry: %d records, %v", len(records), err)
	}
	if _, err := VerifyChain(records, ""); err != nil {
		t.Fatal(err)
	}
	live, err := s.Stats("c")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := New(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if recovered, err := s2.Stats("c"); err != nil || recovered != live {
		t.Fatalf("recovered stats %+v, %v; want %+v", recovered, err, live)
	}
}
