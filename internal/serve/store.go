package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/bigmap/bigmap/internal/checkpoint"
)

// store is the daemon's on-disk state: one directory per campaign holding a
// JSON metadata document and round-stamped campaign checkpoints.
//
//	<root>/campaigns/<id>/meta.json
//	<root>/campaigns/<id>/chk-00000042.bm
//
// The round count lives in the checkpoint's file name, not in meta.json, so
// the two files never need a cross-file atomic commit: a checkpoint is
// self-describing the moment its rename lands, and a crash between writing
// it and updating the metadata loses nothing — recovery always trusts the
// newest checkpoint that decodes. Metadata and checkpoints are both written
// through the checkpoint package's atomic temp+fsync+rename+dirsync path.
type store struct {
	root string
	// saveAttempts/saveBackoff parameterize checkpoint.SaveRetry for every
	// write — a daemon checkpoint is a last line of defense, so transient
	// disk trouble is retried instead of surfaced immediately.
	saveAttempts int
	saveBackoff  time.Duration
}

// meta is the persisted per-campaign metadata document.
type meta struct {
	ID       string         `json:"id"`
	Tenant   string         `json:"tenant"`
	State    State          `json:"state"`
	Spec     Spec           `json:"spec"`
	Restarts int            `json:"restarts,omitempty"`
	Error    string         `json:"error,omitempty"`
	Stats    *CampaignStats `json:"stats,omitempty"`
}

const chkPrefix = "chk-"

func newStore(root string, attempts int, backoff time.Duration) (*store, error) {
	st := &store{root: root, saveAttempts: attempts, saveBackoff: backoff}
	if err := os.MkdirAll(st.campaignsRoot(), 0o755); err != nil {
		return nil, fmt.Errorf("serve: init state dir: %w", err)
	}
	return st, nil
}

func (st *store) campaignsRoot() string { return filepath.Join(st.root, "campaigns") }

func (st *store) dir(id string) string { return filepath.Join(st.campaignsRoot(), id) }

func (st *store) metaPath(id string) string { return filepath.Join(st.dir(id), "meta.json") }

func (st *store) chkPath(id string, rounds int) string {
	return filepath.Join(st.dir(id), fmt.Sprintf("%s%08d.bm", chkPrefix, rounds))
}

// create makes the campaign directory, refusing to adopt one that already
// exists: campaign IDs are never re-minted (recovery reserves every on-disk
// ID, loadable or not), so an existing directory is stale state — reusing it
// could hand a new campaign another campaign's leftover checkpoints.
func (st *store) create(id string) error {
	if err := os.Mkdir(st.dir(id), 0o755); err != nil {
		return fmt.Errorf("serve: create campaign dir: %w", err)
	}
	return nil
}

// remove deletes a campaign directory; Submit uses it to roll back a
// creation that could not be completed. Best-effort — a leftover directory
// costs a recovery_skipped event, not wrong state.
func (st *store) remove(id string) {
	os.RemoveAll(st.dir(id)) //bigmap:err-ok best-effort rollback; a leftover directory costs a recovery_skipped event, not wrong state
}

// saveMeta atomically persists the metadata document.
func (st *store) saveMeta(m *meta) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: encode meta: %w", err)
	}
	if err := checkpoint.SaveRetry(st.metaPath(m.ID), data, st.saveAttempts, st.saveBackoff); err != nil {
		return fmt.Errorf("serve: save meta %s: %w", m.ID, err)
	}
	return nil
}

// loadMeta reads and validates a campaign's metadata.
func (st *store) loadMeta(id string) (*meta, error) {
	data, err := os.ReadFile(st.metaPath(id))
	if err != nil {
		return nil, fmt.Errorf("serve: load meta %s: %w", id, err)
	}
	var m meta
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("serve: decode meta %s: %w", id, err)
	}
	if m.ID != id {
		return nil, fmt.Errorf("serve: meta %s names id %q", id, m.ID)
	}
	if !m.State.valid() {
		return nil, fmt.Errorf("serve: meta %s has unknown state %q", id, m.State)
	}
	return &m, nil
}

// list returns every campaign ID present on disk, sorted.
func (st *store) list() ([]string, error) {
	entries, err := os.ReadDir(st.campaignsRoot())
	if err != nil {
		return nil, fmt.Errorf("serve: list campaigns: %w", err)
	}
	ids := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// saveCheckpoint persists the campaign state covering the given round count
// and prunes older checkpoints, keeping the newest two — the freshly
// written one plus one predecessor as insurance against a corrupt write
// that somehow survived the CRC.
func (st *store) saveCheckpoint(id string, rounds int, cs *checkpoint.CampaignState) error {
	data := checkpoint.EncodeCampaign(cs)
	if err := checkpoint.SaveRetry(st.chkPath(id, rounds), data, st.saveAttempts, st.saveBackoff); err != nil {
		return fmt.Errorf("serve: save checkpoint %s@%d: %w", id, rounds, err)
	}
	st.pruneCheckpoints(id, 2)
	return nil
}

// checkpointRounds lists the round stamps of the campaign's on-disk
// checkpoints, newest first. Files that do not parse are ignored.
func (st *store) checkpointRounds(id string) []int {
	entries, err := os.ReadDir(st.dir(id))
	if err != nil {
		return nil
	}
	var rounds []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, chkPrefix) || !strings.HasSuffix(name, ".bm") {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, chkPrefix), ".bm"))
		if err != nil || n < 0 {
			continue
		}
		rounds = append(rounds, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(rounds)))
	return rounds
}

// loadCheckpoint returns the newest checkpoint that decodes, with the round
// count it covers. A corrupt newest file falls back to its predecessor —
// losing one cadence of work beats losing the campaign. A file of another
// format version is not corruption but version skew: it stops the walk
// with an error wrapping checkpoint.ErrVersion, since an older file would
// resume the campaign from the wrong point.
func (st *store) loadCheckpoint(id string) (*checkpoint.CampaignState, int, error) {
	var firstErr error
	for _, rounds := range st.checkpointRounds(id) {
		cs, err := checkpoint.LoadCampaign(st.chkPath(id, rounds))
		if err == nil {
			return cs, rounds, nil
		}
		if errors.Is(err, checkpoint.ErrVersion) {
			return nil, 0, fmt.Errorf("serve: campaign %s: %s: %w", id, filepath.Base(st.chkPath(id, rounds)), err)
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, 0, fmt.Errorf("serve: no loadable checkpoint for %s: %w", id, firstErr)
	}
	return nil, 0, fmt.Errorf("serve: no checkpoint on disk for %s", id)
}

// pruneCheckpoints removes all but the newest keep checkpoints.
func (st *store) pruneCheckpoints(id string, keep int) {
	rounds := st.checkpointRounds(id)
	for i := keep; i < len(rounds); i++ {
		// Best-effort: a stale checkpoint is wasted disk, not wrong state.
		os.Remove(st.chkPath(id, rounds[i])) //bigmap:err-ok pruning is advisory; the newest checkpoints stay valid either way
	}
}
