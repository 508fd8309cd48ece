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
// change, so the content files and then the fsynced ledger record land
// before the batch is visible — in that order, so every record only
// references files already on disk.
type journal struct {
	dir string // immutable

	mu       sync.Mutex
	prevHash string   // guarded by mu; ledger chain tail
	length   int      // guarded by mu; ledger records
	ledgerF  *os.File // guarded by mu; append handle, opened on first append
}

var _ dist.Journal = (*journal)(nil)

type campaignMeta struct {
	Name    string `json:"name"`
	MapSize int    `json:"map_size"`
}

// workerCursor is one worker's workers.json entry.
type workerCursor struct {
	Cursor  int    `json:"cursor"`
	LastSeq uint64 `json:"last_seq"`
}

type crashFile struct {
	Key        string `json:"key"`
	Site       uint32 `json:"site"`
	StackDepth int    `json:"stack_depth"`
	Input      []byte `json:"input"`
}

// createJournal lays out a new campaign directory and its campaign.json.
func createJournal(dir, name string, mapSize int) (*journal, error) {
	for _, sub := range []string{"", "inputs", "crashes"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("corpusd: create campaign dir: %w", err)
		}
	}
	data, err := json.MarshalIndent(campaignMeta{Name: name, MapSize: mapSize}, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("corpusd: encode campaign meta: %w", err)
	}
	if err := checkpoint.Save(filepath.Join(dir, "campaign.json"), data); err != nil {
		return nil, fmt.Errorf("corpusd: save campaign meta: %w", err)
	}
	return &journal{dir: dir}, nil
}

// Commit writes the batch's new inputs and crash buckets, then appends and
// fsyncs the sealed ledger record that references them — the batch's
// durability point.
func (j *journal) Commit(c dist.Commit) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec := Record{Seq: j.length + 1, Worker: c.Worker, WorkerSeq: c.Seq, Dups: c.Dups, Delta: c.Delta}
	for _, in := range c.Inputs {
		if err := checkpoint.Save(filepath.Join(j.dir, "inputs", in.Hash), in.Input); err != nil {
			return fmt.Errorf("corpusd: store input: %w", err)
		}
		rec.Inputs = append(rec.Inputs, in.Hash)
	}
	for _, cr := range c.Crashes {
		if err := saveCrash(j.dir, cr); err != nil {
			return err
		}
		rec.Crashes = append(rec.Crashes, crashKeyHex(cr.Key))
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

// SaveCursors atomically rewrites workers.json. Losing it is recoverable
// (workers re-pull and re-push; dedup absorbs both), so it is written after
// the ledger, never as part of the chain.
func (j *journal) SaveCursors(cursors map[string]dist.JoinInfo) error {
	out := make(map[string]workerCursor, len(cursors))
	//bigmap:nondeterministic-ok map-to-map copy; json sorts the keys
	for name, info := range cursors {
		out[name] = workerCursor{Cursor: info.Cursor, LastSeq: info.LastSeq}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return fmt.Errorf("corpusd: encode workers: %w", err)
	}
	if err := checkpoint.Save(filepath.Join(j.dir, "workers.json"), data); err != nil {
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

func crashKeyHex(key uint64) string {
	return fmt.Sprintf("%016x", key)
}

func saveCrash(dir string, cr dist.Crash) error {
	data, err := json.MarshalIndent(crashFile{
		Key:        crashKeyHex(cr.Key),
		Site:       cr.Site,
		StackDepth: cr.StackDepth,
		Input:      cr.Input,
	}, "", "  ")
	if err != nil {
		return fmt.Errorf("corpusd: encode crash: %w", err)
	}
	path := filepath.Join(dir, "crashes", crashKeyHex(cr.Key)+".json")
	if err := checkpoint.Save(path, data); err != nil {
		return fmt.Errorf("corpusd: save crash: %w", err)
	}
	return nil
}

// recoverCampaign rebuilds a campaign from its directory: the ledger is
// read and its chain verified (a torn tail line from a crash mid-append is
// cut off), every record is re-read from its content files — each input's
// hash re-checked — and replayed into a fresh Hub, and the cursors come
// back from workers.json when present (a missing or stale cursor file only
// causes harmless re-pulls).
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
		commit, err := readCommit(dir, rec)
		if err != nil {
			return nil, err
		}
		if err := c.hub.Replay(commit); err != nil {
			return nil, fmt.Errorf("%w: record %d: %v", ErrLedgerCorrupt, rec.Seq, err)
		}
	}

	if wdata, err := os.ReadFile(filepath.Join(dir, "workers.json")); err == nil {
		var cursors map[string]workerCursor
		if err := json.Unmarshal(wdata, &cursors); err == nil {
			infos := make(map[string]dist.JoinInfo, len(cursors))
			//bigmap:nondeterministic-ok map-to-map copy; order cannot matter
			for name, wc := range cursors {
				infos[name] = dist.JoinInfo{Cursor: wc.Cursor, LastSeq: wc.LastSeq}
			}
			c.hub.RestoreCursors(infos)
		}
	}
	return c, nil
}

// readCommit loads the content a ledger record references, verifying each
// input against its content hash.
func readCommit(dir string, rec Record) (dist.Commit, error) {
	c := dist.Commit{Worker: rec.Worker, Seq: rec.WorkerSeq, Delta: rec.Delta, Dups: rec.Dups}
	for _, hash := range rec.Inputs {
		in, err := os.ReadFile(filepath.Join(dir, "inputs", hash))
		if err != nil {
			return c, fmt.Errorf("%w: ledger record %d references unreadable input %s: %v",
				ErrLedgerCorrupt, rec.Seq, hash, err)
		}
		if dist.HashInput(in) != hash {
			return c, fmt.Errorf("%w: input %s content does not match its hash", ErrLedgerCorrupt, hash)
		}
		c.Inputs = append(c.Inputs, dist.Pulled{Hash: hash, Input: in})
	}
	for _, keyHex := range rec.Crashes {
		key, err := strconv.ParseUint(keyHex, 16, 64)
		if err != nil {
			return c, fmt.Errorf("%w: record %d: crash key %q: %v", ErrLedgerCorrupt, rec.Seq, keyHex, err)
		}
		cdata, err := os.ReadFile(filepath.Join(dir, "crashes", keyHex+".json"))
		if err != nil {
			return c, fmt.Errorf("%w: ledger record %d references unreadable crash %s: %v",
				ErrLedgerCorrupt, rec.Seq, keyHex, err)
		}
		var cf crashFile
		if err := json.Unmarshal(cdata, &cf); err != nil {
			return c, fmt.Errorf("%w: crash %s: %v", ErrLedgerCorrupt, keyHex, err)
		}
		c.Crashes = append(c.Crashes, dist.Crash{Key: key, Site: cf.Site, StackDepth: cf.StackDepth, Input: cf.Input})
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
