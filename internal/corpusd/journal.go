package corpusd

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"github.com/bigmap/bigmap/internal/checkpoint"
	"github.com/bigmap/bigmap/internal/core"
	"github.com/bigmap/bigmap/internal/dist"
)

// journal persists one campaign's Hub under its directory. It implements
// dist.Journal: the Hub calls Commit after dedup and before any in-memory
// change, so the batch's sealed ledger record — bodies included — is
// appended and fsynced before the batch is visible. That append is the
// only durable write of a push; the cursor file after it is not fsynced.
type journal struct {
	dir string // immutable

	mu       sync.Mutex
	prevHash string   // guarded by mu; ledger chain tail
	length   int      // guarded by mu; ledger records
	ledgerF  *os.File // guarded by mu; append handle, opened on first append
}

var _ dist.Journal = (*journal)(nil)

// campaignFormat is the on-disk layout version recorded in campaign.json.
// Format 2 carries input and crash bodies inside the ledger records. The
// earlier layout (no format field) kept them in inputs/ and crashes/ files
// and is refused, not converted: its hash-only records do not decode.
const campaignFormat = 2

type campaignMeta struct {
	Name    string `json:"name"`
	MapSize int    `json:"map_size"`
	Format  int    `json:"format"`
}

// createJournal lays out a new campaign directory and its campaign.json.
func createJournal(dir, name string, mapSize int) (*journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("corpusd: create campaign dir: %w", err)
	}
	data, err := json.MarshalIndent(campaignMeta{Name: name, MapSize: mapSize, Format: campaignFormat}, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("corpusd: encode campaign meta: %w", err)
	}
	if err := checkpoint.Save(filepath.Join(dir, "campaign.json"), data); err != nil {
		return nil, fmt.Errorf("corpusd: save campaign meta: %w", err)
	}
	return &journal{dir: dir}, nil
}

// Commit seals the batch — new inputs and crash buckets inline — into one
// ledger record, then appends and fsyncs it: the batch's durability point.
func (j *journal) Commit(c dist.Commit) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec := Record{Seq: j.length + 1, Worker: c.Worker, WorkerSeq: c.Seq, Dups: c.Dups, Delta: c.Delta}
	for _, in := range c.Inputs {
		rec.Inputs = append(rec.Inputs, RecordInput{Hash: in.Hash, Data: in.Input})
	}
	for _, cr := range c.Crashes {
		rec.Crashes = append(rec.Crashes, RecordCrash{
			Key: fmt.Sprintf("%016x", cr.Key), Site: cr.Site, StackDepth: cr.StackDepth, Input: cr.Input,
		})
	}
	rec = sealRecord(rec, j.prevHash)
	if err := j.appendLocked(rec); err != nil {
		return err
	}
	j.prevHash = rec.Hash
	j.length++
	return nil
}

// appendLocked appends one sealed record to ledger.jsonl and fsyncs.
func (j *journal) appendLocked(rec Record) error {
	if j.ledgerF == nil {
		f, err := os.OpenFile(filepath.Join(j.dir, "ledger.jsonl"),
			os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("corpusd: open ledger: %w", err)
		}
		j.ledgerF = f
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("corpusd: encode ledger record: %w", err)
	}
	if _, err := j.ledgerF.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("corpusd: append ledger: %w", err)
	}
	if err := j.ledgerF.Sync(); err != nil {
		return fmt.Errorf("corpusd: sync ledger: %w", err)
	}
	return nil
}

// SaveCursors atomically replaces workers.json (temp file, then rename).
// Losing it is recoverable (workers re-pull and re-push; dedup absorbs
// both), so it is written after the ledger, never as part of the chain, and
// never fsynced. Each entry is a dist.JoinInfo ({"last_seq", "cursor"});
// files written with the keys in the other order load the same.
func (j *journal) SaveCursors(cursors map[string]dist.JoinInfo) error {
	data, err := json.MarshalIndent(cursors, "", "  ")
	if err != nil {
		return fmt.Errorf("corpusd: encode workers: %w", err)
	}
	path := filepath.Join(j.dir, "workers.json")
	if err := os.WriteFile(path+".tmp", data, 0o644); err != nil {
		return fmt.Errorf("corpusd: save workers: %w", err)
	}
	if err := os.Rename(path+".tmp", path); err != nil {
		return fmt.Errorf("corpusd: save workers: %w", err)
	}
	return nil
}

// records re-reads and verifies the ledger from disk.
func (j *journal) records() ([]Record, error) {
	f, err := os.Open(filepath.Join(j.dir, "ledger.jsonl"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("corpusd: open ledger: %w", err)
	}
	defer f.Close() //bigmap:err-ok read-only handle; close failure cannot lose data
	records, _, err := readLedger(f)
	return records, err
}

// close releases the ledger append handle.
func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.ledgerF == nil {
		return nil
	}
	err := j.ledgerF.Close()
	j.ledgerF = nil
	return err
}

// recoverCampaign rebuilds a campaign from its directory, reading nothing
// but campaign.json, the ledger and the cursor file: the campaign's format
// is checked before the ledger is touched, the ledger is read and its chain
// verified (a torn tail line from a crash mid-append is cut off), every
// record — each input's content hash re-checked — is replayed into a fresh
// Hub, and the cursors come back from workers.json when present (a missing
// or stale cursor file only causes harmless re-pulls).
func recoverCampaign(dir string) (*campaign, error) {
	data, err := os.ReadFile(filepath.Join(dir, "campaign.json"))
	if err != nil {
		return nil, fmt.Errorf("read campaign.json: %w", err)
	}
	var meta campaignMeta
	if err := json.Unmarshal(data, &meta); err != nil {
		return nil, fmt.Errorf("decode campaign.json: %w", err)
	}
	if meta.Name != filepath.Base(dir) {
		return nil, fmt.Errorf("campaign.json names %q, directory is %q", meta.Name, filepath.Base(dir))
	}
	if meta.Format != campaignFormat {
		return nil, fmt.Errorf("campaign.json has format %d, want format %d (inline ledger bodies); "+
			"older layouts are not converted", meta.Format, campaignFormat)
	}
	if err := core.CheckMapSize(meta.MapSize); err != nil {
		return nil, fmt.Errorf("campaign.json map size %d: %w", meta.MapSize, err)
	}
	var records []Record
	lf, err := os.Open(filepath.Join(dir, "ledger.jsonl"))
	switch {
	case err == nil:
		var truncated bool
		records, truncated, err = readLedger(lf)
		lf.Close() //bigmap:err-ok read-only handle; close failure cannot lose data
		if err != nil {
			return nil, err
		}
		if truncated {
			// A crash mid-append left a torn tail line. The verified prefix
			// is the campaign; rewrite the file to exactly that prefix so
			// the next append continues a clean chain.
			if err := rewriteLedger(dir, records); err != nil {
				return nil, err
			}
		}
	case os.IsNotExist(err):
		// Campaign created but nothing pushed yet.
	default:
		return nil, fmt.Errorf("open ledger: %w", err)
	}

	tail := ""
	if len(records) > 0 {
		tail = records[len(records)-1].Hash
	}
	j := &journal{dir: dir, prevHash: tail, length: len(records)}
	c, err := newCampaign(meta.MapSize, j)
	if err != nil {
		return nil, err
	}
	for _, rec := range records {
		commit, err := readCommit(rec)
		if err != nil {
			return nil, err
		}
		if err := c.hub.Replay(commit); err != nil {
			return nil, fmt.Errorf("%w: record %d: %v", ErrLedgerCorrupt, rec.Seq, err)
		}
	}

	if wdata, err := os.ReadFile(filepath.Join(dir, "workers.json")); err == nil {
		var cursors map[string]dist.JoinInfo
		if err := json.Unmarshal(wdata, &cursors); err == nil {
			c.hub.RestoreCursors(cursors)
		}
	}
	return c, nil
}

// readCommit turns a ledger record back into the Commit it sealed,
// verifying each input against its content hash.
func readCommit(rec Record) (dist.Commit, error) {
	c := dist.Commit{Worker: rec.Worker, Seq: rec.WorkerSeq, Delta: rec.Delta, Dups: rec.Dups}
	for _, in := range rec.Inputs {
		if dist.HashInput(in.Data) != in.Hash {
			return c, fmt.Errorf("%w: record %d: input %s content does not match its hash",
				ErrLedgerCorrupt, rec.Seq, in.Hash)
		}
		c.Inputs = append(c.Inputs, dist.Pulled{Hash: in.Hash, Input: in.Data})
	}
	for _, cr := range rec.Crashes {
		key, err := strconv.ParseUint(cr.Key, 16, 64)
		if err != nil {
			return c, fmt.Errorf("%w: record %d: crash key %q: %v", ErrLedgerCorrupt, rec.Seq, cr.Key, err)
		}
		c.Crashes = append(c.Crashes, dist.Crash{Key: key, Site: cr.Site, StackDepth: cr.StackDepth, Input: cr.Input})
	}
	return c, nil
}

// rewriteLedger replaces ledger.jsonl with exactly the verified records,
// atomically, after recovery tolerated a torn tail line.
func rewriteLedger(dir string, records []Record) error {
	var buf []byte
	for _, rec := range records {
		data, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("corpusd: encode ledger record: %w", err)
		}
		buf = append(buf, data...)
		buf = append(buf, '\n')
	}
	if err := checkpoint.Save(filepath.Join(dir, "ledger.jsonl"), buf); err != nil {
		return fmt.Errorf("corpusd: rewrite ledger: %w", err)
	}
	return nil
}
