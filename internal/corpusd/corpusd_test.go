package corpusd

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/bigmap/bigmap/internal/core"
	"github.com/bigmap/bigmap/internal/dist"
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

func TestCreateCampaignIdempotent(t *testing.T) {
	s, err := New(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	created, err := s.CreateCampaign("c1", 64)
	if err != nil || !created {
		t.Fatalf("create: %v created=%v", err, created)
	}
	created, err = s.CreateCampaign("c1", 64)
	if err != nil || created {
		t.Fatalf("re-create: %v created=%v", err, created)
	}
	if _, err := s.CreateCampaign("c1", 128); !errors.Is(err, ErrCampaignMismatch) {
		t.Fatalf("size mismatch: %v", err)
	}
	for _, bad := range []string{"", "..", "a/b", "x y", string(make([]byte, 200))} {
		if _, err := s.CreateCampaign(bad, 64); err == nil {
			t.Fatalf("name %q accepted", bad)
		}
	}
	if _, err := s.CreateCampaign("badsize", 63); err == nil {
		t.Fatal("invalid map size accepted")
	}
}

func pushBatches(t *testing.T, s *Store) {
	t.Helper()
	if _, err := s.CreateCampaign("c", 64); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"a", "b"} {
		if _, err := s.Join("c", w); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Push("c", "a", dist.Batch{
		Seq:     1,
		Inputs:  [][]byte{[]byte("one"), []byte("two")},
		Crashes: []dist.Crash{{Key: 7, Site: 3, StackDepth: 2, Input: []byte("boom")}},
		Delta:   testDelta(t, 64, map[int]byte{0: 0x7F, 5: 0x00}),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Push("c", "b", dist.Batch{
		Seq:    1,
		Inputs: [][]byte{[]byte("two"), []byte("three")},
		Delta:  testDelta(t, 64, map[int]byte{5: 0x00, 9: 0xFE}),
	}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreSemanticsMatchHub(t *testing.T) {
	// The persistent store and the in-memory hub implement the same
	// contract; drive both through an identical script and compare.
	s, err := New(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pushBatches(t, s)
	h, err := dist.NewHub(64, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"a", "b"} {
		if _, err := h.Join(w); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.Push("a", dist.Batch{
		Seq:     1,
		Inputs:  [][]byte{[]byte("one"), []byte("two")},
		Crashes: []dist.Crash{{Key: 7, Site: 3, StackDepth: 2, Input: []byte("boom")}},
		Delta:   testDelta(t, 64, map[int]byte{0: 0x7F, 5: 0x00}),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Push("b", dist.Batch{
		Seq:    1,
		Inputs: [][]byte{[]byte("two"), []byte("three")},
		Delta:  testDelta(t, 64, map[int]byte{5: 0x00, 9: 0xFE}),
	}); err != nil {
		t.Fatal(err)
	}
	sst, err := s.Stats("c")
	if err != nil {
		t.Fatal(err)
	}
	hst, err := h.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if sst != hst {
		t.Fatalf("store %+v != hub %+v", sst, hst)
	}
	sp, err := s.Pull("c", "a")
	if err != nil {
		t.Fatal(err)
	}
	hp, err := h.Pull("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp) != len(hp) || len(sp) != 1 || string(sp[0].Input) != string(hp[0].Input) {
		t.Fatalf("store pulled %+v, hub %+v", sp, hp)
	}
}

func TestStoreRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	pushBatches(t, s)
	// a pulls before the restart so its cursor is non-zero on disk.
	if _, err := s.Pull("c", "a"); err != nil {
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
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	after, err := s2.Stats("c")
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatalf("recovered stats %+v, want %+v", after, before)
	}
	unionAfter, err := s2.UnionSnapshot("c")
	if err != nil {
		t.Fatal(err)
	}
	if string(unionAfter) != string(unionBefore) {
		t.Fatal("recovered union diverged")
	}
	// Sequence chains resume: the next push for each worker is seq 2.
	info, err := s2.Join("c", "a")
	if err != nil || info.LastSeq != 1 {
		t.Fatalf("a rejoin: %+v, %v", info, err)
	}
	if info.Cursor == 0 {
		t.Fatal("a's pull cursor was not recovered")
	}
	if _, err := s2.Push("c", "a", dist.Batch{Seq: 2, Inputs: [][]byte{[]byte("four")}}); err != nil {
		t.Fatal(err)
	}
	// A replayed pre-restart sequence still answers idempotently.
	if _, err := s2.Push("c", "b", dist.Batch{Seq: 1}); err != nil {
		t.Fatalf("replay after recovery: %v", err)
	}
	crashes, err := s2.Crashes("c")
	if err != nil || len(crashes) != 1 || crashes[0].Key != 7 || string(crashes[0].Input) != "boom" {
		t.Fatalf("recovered crashes %+v, %v", crashes, err)
	}
}

func TestStoreRecoveryToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	pushBatches(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: garbage half-line at the tail.
	lpath := filepath.Join(dir, "c", "ledger.jsonl")
	f, err := os.OpenFile(lpath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":3,"worker":"a","trunc`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := New(dir, nil)
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	defer s2.Close()
	st, err := s2.Stats("c")
	if err != nil || st.Batches != 2 || st.Inputs != 3 {
		t.Fatalf("recovered stats %+v, %v", st, err)
	}
	// The torn line was pruned; the chain continues cleanly.
	if _, err := s2.Push("c", "a", dist.Batch{Seq: 2, Inputs: [][]byte{[]byte("four")}}); err != nil {
		t.Fatal(err)
	}
	records, err := s2.Ledger("c")
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 {
		t.Fatalf("ledger has %d records, want 3", len(records))
	}
	if _, err := VerifyChain(records, ""); err != nil {
		t.Fatal(err)
	}
}

func TestStoreRejectsMidFileTampering(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	pushBatches(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	cdir := filepath.Join(dir, "c")
	lpath := filepath.Join(cdir, "ledger.jsonl")
	data, err := os.ReadFile(lpath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the first record's header, then one in its inline
	// body ("one" is "b25l" in base64): either rewrites history, and the
	// chain hash covers both.
	body := bytes.Index(data, []byte(`"data":"b25l"`))
	if body < 0 {
		t.Fatalf("no inline body for %q in the first record: %s", "one", data)
	}
	for _, at := range []int{20, body + len(`"data":"`)} {
		tampered := append([]byte(nil), data...)
		tampered[at] ^= 1
		if err := os.WriteFile(lpath, tampered, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := New(dir, nil); !errors.Is(err, ErrLedgerCorrupt) {
			t.Fatalf("ledger tampered at byte %d accepted: %v", at, err)
		}
	}
	// A body rewritten under a re-sealed chain passes every chain check;
	// the content-hash check alone must catch it.
	records, truncated, err := readLedger(bytes.NewReader(data))
	if err != nil || truncated {
		t.Fatalf("read ledger: truncated=%v, %v", truncated, err)
	}
	records[0].Inputs[0].Data = []byte("evil")
	prev := ""
	for i := range records {
		records[i] = sealRecord(records[i], prev)
		prev = records[i].Hash
	}
	if err := rewriteLedger(cdir, records); err != nil {
		t.Fatal(err)
	}
	_, err = New(dir, nil)
	if !errors.Is(err, ErrLedgerCorrupt) || !strings.Contains(err.Error(), "does not match its hash") {
		t.Fatalf("re-sealed tampered body accepted: %v", err)
	}
}

// TestPushWritesOnlyTheLedger pins "one durable file per push": pushes with
// new inputs and crash buckets, and pulls, leave no per-input or per-crash
// files and no temp files behind.
func TestPushWritesOnlyTheLedger(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pushBatches(t, s)
	if _, err := s.Pull("c", "a"); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "c"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{"campaign.json", "ledger.jsonl", "workers.json"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("campaign directory holds %v, want %v", names, want)
	}
}

// readTree returns every regular file under root, keyed by its path
// relative to root.
func readTree(t *testing.T, root string) map[string]string {
	t.Helper()
	files := make(map[string]string)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		files[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// writeTree lays files (relative path to contents) out under root.
func writeTree(t *testing.T, root string, files map[string]string) {
	t.Helper()
	for rel, data := range files {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreLoadsOldCursorOrder recovers a campaign whose workers.json was
// written with each entry's keys in the order {"cursor", "last_seq"}
// (testdata/oldcursors: pushBatches, then a pulls and pushes "four" as its
// seq 2). The pull cursors are only on that file, so the joins show it
// loaded; a's next pull then skips everything it already had.
func TestStoreLoadsOldCursorOrder(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, readTree(t, filepath.Join("testdata", "oldcursors")))
	s, err := New(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for w, want := range map[string]dist.JoinInfo{"a": {LastSeq: 2, Cursor: 3}, "b": {LastSeq: 1, Cursor: 0}} {
		if got, err := s.Join("c", w); err != nil || got != want {
			t.Fatalf("%s rejoin: %+v, %v; want %+v", w, got, err, want)
		}
	}
	pulled, err := s.Pull("c", "a")
	if err != nil || len(pulled) != 0 {
		t.Fatalf("a pulled %d inputs after recovery, want none: %v", len(pulled), err)
	}
}

// TestStoreRefusesOldLayout pins that a campaign written before ledger
// records carried their bodies (testdata/format1: hash-only records, bodies
// under inputs/) is refused by name and left byte-identical. Its one record
// no longer decodes, and without the format check the torn-tail repair
// would rewrite that ledger to empty.
func TestStoreRefusesOldLayout(t *testing.T) {
	dir := t.TempDir()
	old := readTree(t, filepath.Join("testdata", "format1"))
	writeTree(t, dir, old)
	_, err := New(dir, nil)
	if err == nil || !strings.Contains(err.Error(), "format 2") {
		t.Fatalf("old layout: %v, want an error naming the campaign format", err)
	}
	if got := readTree(t, dir); !reflect.DeepEqual(got, old) {
		t.Fatal("refusing the old layout changed its files")
	}
}

// TestLargePushSurvivesRestart pins the ledger line cap to the request body
// cap. One push of distinct 3-byte inputs, the shape whose record grows
// most over its request body, is accepted over HTTP; its ledger line, scaled
// to a full-size body, must fit maxRecordBytes, and it is larger than the
// ledger reader's initial buffer, so a restart exercises the grown buffer.
func TestLargePushSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	cl, err := dist.NewClient(srv.URL, "c")
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.EnsureCampaign(64); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Join("w"); err != nil {
		t.Fatal(err)
	}
	inputs := make([][]byte, 20000)
	for i := range inputs {
		inputs[i] = []byte{byte(i >> 16), byte(i >> 8), byte(i)}
	}
	body, err := json.Marshal(dist.PushRequest{Worker: "w", Batch: dist.Batch{Seq: 1, Inputs: inputs}})
	if err != nil {
		t.Fatal(err)
	}
	if rcpt, err := cl.Push("w", dist.Batch{Seq: 1, Inputs: inputs}); err != nil || rcpt.NewInputs != len(inputs) {
		t.Fatalf("push: %+v, %v", rcpt, err)
	}
	before, err := s.Stats("c")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ledger, err := os.ReadFile(filepath.Join(dir, "c", "ledger.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	line := int64(len(ledger))
	if line <= 1<<20 {
		t.Fatalf("ledger line is %d bytes, want more than the reader's 1 MiB initial buffer", line)
	}
	if line*maxBodyBytes > int64(maxRecordBytes)*int64(len(body)) {
		t.Fatalf("a %d-byte body made a %d-byte record: scaled to the %d-byte body cap it exceeds the %d-byte line cap",
			len(body), line, maxBodyBytes, maxRecordBytes)
	}
	s2, err := New(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if after, err := s2.Stats("c"); err != nil || after != before {
		t.Fatalf("recovered stats %+v, %v; want %+v", after, err, before)
	}
	if in, err := s2.Input("c", dist.HashInput(inputs[len(inputs)-1])); err != nil || !bytes.Equal(in, inputs[len(inputs)-1]) {
		t.Fatalf("recovered input %x, %v", in, err)
	}
}

func TestMemoryOnlyStore(t *testing.T) {
	s, err := New("", nil)
	if err != nil {
		t.Fatal(err)
	}
	pushBatches(t, s)
	st, err := s.Stats("c")
	if err != nil || st.Inputs != 3 {
		t.Fatalf("stats %+v, %v", st, err)
	}
	records, err := s.Ledger("c")
	if err != nil || records != nil {
		t.Fatalf("memory-only ledger: %v, %v", records, err)
	}
}

// TestClientAgainstServer drives the dist.Client through the real handler:
// the wire implementation must satisfy the same contract the hub does,
// including sentinel-error mapping across the HTTP boundary.
func TestClientAgainstServer(t *testing.T) {
	s, err := New(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	cl, err := dist.NewClient(srv.URL, "wire")
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.EnsureCampaign(64); err != nil {
		t.Fatal(err)
	}
	if err := cl.EnsureCampaign(64); err != nil {
		t.Fatal(err)
	}
	if err := cl.EnsureCampaign(128); err == nil {
		t.Fatal("size mismatch accepted over the wire")
	}
	if _, err := cl.Push("ghost", dist.Batch{Seq: 1}); !errors.Is(err, dist.ErrUnknownWorker) {
		t.Fatalf("unjoined push: %v", err)
	}
	info, err := cl.Join("w1")
	if err != nil || info.LastSeq != 0 {
		t.Fatalf("join: %+v, %v", info, err)
	}
	if _, err := cl.Join("w2"); err != nil {
		t.Fatal(err)
	}
	rcpt, err := cl.Push("w1", dist.Batch{
		Seq:     1,
		Inputs:  [][]byte{[]byte("alpha"), []byte("beta")},
		Crashes: []dist.Crash{{Key: 11, Site: 5, StackDepth: 3, Input: []byte("crash")}},
		Delta:   testDelta(t, 64, map[int]byte{2: 0x0F}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rcpt.NewInputs != 2 || rcpt.NewCrashes != 1 || rcpt.UnionDiscovered != 1 {
		t.Fatalf("receipt %+v", rcpt)
	}
	if _, err := cl.Push("w1", dist.Batch{Seq: 5}); !errors.Is(err, dist.ErrSeqGap) {
		t.Fatalf("gap over the wire: %v", err)
	}
	pulled, err := cl.Pull("w2")
	if err != nil {
		t.Fatal(err)
	}
	if len(pulled) != 2 || string(pulled[0].Input) != "alpha" || pulled[0].Hash != dist.HashInput([]byte("alpha")) {
		t.Fatalf("pulled %+v", pulled)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	want := dist.Stats{MapSize: 64, Inputs: 2, Crashes: 1, Workers: 2,
		Batches: 1, DeltaWords: 1, UnionDiscovered: 1}
	if st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
	// Stats against an unknown campaign is a clean 404.
	cl2, err := dist.NewClient(srv.URL, "nope")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl2.Stats(); err == nil {
		t.Fatal("unknown campaign accepted")
	}
}
