package corpusd

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Record is one accepted batch in a campaign's hash-chained ledger. The
// ledger is the campaign's durable truth and its only durable per-batch
// write: each record carries the bodies of the inputs and crash buckets it
// added, so replaying it (verifying the chain and every input's content
// hash) reconstructs the store's full state. That is how a restarted
// corpusd recovers and how anyone holding the ledger can audit that no batch
// was dropped, reordered or rewritten.
type Record struct {
	// Seq is the global record number, 1-based and dense.
	Seq int `json:"seq"`
	// Worker and WorkerSeq identify the batch in the pusher's sequence
	// chain.
	Worker    string `json:"worker"`
	WorkerSeq uint64 `json:"worker_seq"`
	// Inputs holds the inputs first seen in this batch, in arrival order.
	// Duplicates are counted in Dups, not listed.
	Inputs []RecordInput `json:"inputs,omitempty"`
	Dups   int           `json:"dups,omitempty"`
	// Crashes holds the crash buckets first seen in this batch.
	Crashes []RecordCrash `json:"crashes,omitempty"`
	// Delta is the batch's encoded virgin delta (base64 in JSON), empty
	// when the batch carried none.
	Delta []byte `json:"delta,omitempty"`
	// Prev is the previous record's Hash ("" for the first record); Hash
	// is this record's chain hash.
	Prev string `json:"prev"`
	Hash string `json:"hash"`
}

// RecordInput is one stored input: its content hash (hex SHA-256) and its
// bytes (base64 in JSON).
type RecordInput struct {
	Hash string `json:"hash"`
	Data []byte `json:"data"`
}

// RecordCrash is one crash bucket: its dedup key (hex), the crash site and
// stack depth, and the input that reproduces it.
type RecordCrash struct {
	Key        string `json:"key"`
	Site       uint32 `json:"site"`
	StackDepth int    `json:"stack_depth"`
	Input      []byte `json:"input"`
}

// ErrLedgerCorrupt wraps every ledger integrity failure: a broken hash
// chain, a record that does not hash to its own Hash field, undecodable
// JSON mid-file.
var ErrLedgerCorrupt = errors.New("corpusd: ledger corrupt")

// chainHash computes a record's chain hash: SHA-256 over the record's
// canonical JSON with the Hash field empty (Prev included, so each record
// commits to the entire prefix).
func chainHash(r Record) string {
	r.Hash = ""
	data, err := json.Marshal(r)
	if err != nil {
		// A struct of strings, ints and byte slices cannot fail to marshal.
		panic(fmt.Sprintf("corpusd: marshal ledger record: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// sealRecord fills in a record's Prev and Hash against the chain tail.
func sealRecord(r Record, prev string) Record {
	r.Prev = prev
	r.Hash = chainHash(r)
	return r
}

// VerifyChain checks that records form an unbroken, self-consistent hash
// chain starting at prev ("" for a full ledger). Returns the tail hash.
func VerifyChain(records []Record, prev string) (string, error) {
	for i, r := range records {
		if r.Seq != i+1 {
			return "", fmt.Errorf("%w: record %d has seq %d", ErrLedgerCorrupt, i+1, r.Seq)
		}
		if r.Prev != prev {
			return "", fmt.Errorf("%w: record %d prev hash mismatch", ErrLedgerCorrupt, r.Seq)
		}
		if got := chainHash(r); got != r.Hash {
			return "", fmt.Errorf("%w: record %d hash mismatch", ErrLedgerCorrupt, r.Seq)
		}
		prev = r.Hash
	}
	return prev, nil
}

// maxRecordBytes caps one ledger line at the largest record an accepted
// push can produce, so every batch the HTTP layer takes stays readable at
// recovery. Byte slices are base64 in both the request and the record, so
// bodies and the delta cost the same on both sides. What grows is each new
// input's entry: a request spends at least 7 bytes on a distinct input
// ("AAAA",) and the record 90 ({"hash":"<64 hex>","data":"AAAA"},), under 13
// times as much; a crash bucket grows less than 2 times. The slack covers
// the record's fixed fields and the one empty input a batch can add.
const maxRecordBytes = 13*maxBodyBytes + 64<<10

// readLedger parses a ledger.jsonl stream, verifying the chain as it goes.
// A truncated or garbled final line — the signature of a crash mid-append —
// is tolerated and reported via truncated; corruption anywhere else is an
// error.
func readLedger(rd io.Reader) (records []Record, truncated bool, err error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 1<<20), maxRecordBytes)
	prev := ""
	var bad error // the last line read failed; fatal only if another follows
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if bad != nil {
			return nil, false, bad
		}
		n := len(records) + 1
		var r Record
		if jerr := json.Unmarshal(line, &r); jerr != nil {
			bad = fmt.Errorf("%w: undecodable record %d mid-file: %v", ErrLedgerCorrupt, n, jerr)
			continue
		}
		if r.Seq != n || r.Prev != prev || chainHash(r) != r.Hash {
			bad = fmt.Errorf("%w: chain break at record %d mid-file", ErrLedgerCorrupt, n)
			continue
		}
		prev = r.Hash
		records = append(records, r)
	}
	if serr := sc.Err(); serr != nil {
		return nil, false, fmt.Errorf("corpusd: read ledger: %w", serr)
	}
	return records, bad != nil, nil
}
