// Package corpusd is the content-addressed corpus service behind
// bigmap-corpusd: the wire side of the dist sync contract (internal/dist),
// with durability and tamper evidence on top.
//
// A Store hosts named campaigns. Each campaign is a dist.Hub — the one sync
// state machine every campaign in the tree runs on: content-addressed input
// dedup, crash buckets keyed by their Crashwalk key, the AND-merged virgin
// union, per-worker sequence chains and pull cursors — plus a journal that
// makes it durable (journal.go). The Hub hands every accepted batch to the
// journal before it changes any in-memory state, so what the Hub shows is
// always on disk first.
//
// On disk (when the Store has a directory) a campaign lives under
// <dir>/<name>/: campaign.json (geometry), inputs/<hash> and
// crashes/<key>.json (content files, written before the ledger record that
// references them), ledger.jsonl (fsynced, hash-chained append-only log of
// accepted batches — the atomicity point; see ledger.go), and workers.json
// (cursors; if lost, workers simply re-pull and re-push, which dedup
// absorbs). New replays every campaign's ledger into a fresh Hub, verifying
// the chain and each input's content hash — recovery IS verification. A
// memory-only Store (dir "") hosts Hubs without journals.
package corpusd

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"github.com/bigmap/bigmap/internal/core"
	"github.com/bigmap/bigmap/internal/dist"
	"github.com/bigmap/bigmap/internal/telemetry"
)

// Store hosts campaigns. Safe for concurrent use.
type Store struct {
	mu        sync.Mutex
	dir       string               // "" = memory-only (tests)
	campaigns map[string]*campaign // guarded by mu
	reg       *telemetry.Registry

	telBatches *telemetry.Counter
	telDedup   *telemetry.Counter
	telWords   *telemetry.Counter
	telInputs  *telemetry.Gauge
	telSyncNS  *telemetry.Histogram
}

// campaign is one hosted campaign: the Hub that owns its state and the
// journal that makes it durable (nil in a memory-only store).
type campaign struct {
	hub     *dist.Hub
	journal *journal
}

// newCampaign wires a Hub to its journal; j may be nil.
func newCampaign(mapSize int, j *journal) (*campaign, error) {
	var dj dist.Journal
	if j != nil {
		dj = j
	}
	hub, err := dist.NewJournaledHub(mapSize, nil, dj)
	if err != nil {
		return nil, err
	}
	return &campaign{hub: hub, journal: j}, nil
}

// New creates a store. dir may be "" for a memory-only store (tests); a
// non-empty dir is created if needed and existing campaigns are recovered
// from it by ledger replay. reg may be nil.
func New(dir string, reg *telemetry.Registry) (*Store, error) {
	s := &Store{
		dir:        dir,
		campaigns:  make(map[string]*campaign),
		reg:        reg,
		telBatches: reg.Counter("corpusd_batches_total"),
		telDedup:   reg.Counter("corpusd_dedup_hits_total"),
		telWords:   reg.Counter("corpusd_delta_words_total"),
		telInputs:  reg.Gauge("corpusd_inputs"),
		telSyncNS:  reg.Histogram("corpusd_sync_ns"),
	}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("corpusd: create %s: %w", dir, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("corpusd: scan %s: %w", dir, err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		c, err := recoverCampaign(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("corpusd: recover campaign %s: %w", e.Name(), err)
		}
		s.campaigns[e.Name()] = c
		st, _ := c.hub.Stats() //bigmap:err-ok Hub.Stats cannot fail
		reg.Event("campaign_recovered", fmt.Sprintf("%s: %d inputs, %d ledger records, union %d",
			e.Name(), st.Inputs, st.Batches, st.UnionDiscovered))
	}
	return s, nil
}

// Close releases the campaigns' ledger file handles.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var errs []error
	for _, c := range s.campaigns {
		if c.journal != nil {
			errs = append(errs, c.journal.close())
		}
	}
	return errors.Join(errs...)
}

// Telemetry returns the store's registry (nil when telemetry is off).
func (s *Store) Telemetry() *telemetry.Registry { return s.reg }

// Dir returns the store's state directory ("" when memory-only).
func (s *Store) Dir() string { return s.dir }

// validCampaignName keeps campaign names safe as directory components.
func validCampaignName(name string) error {
	if name == "" || len(name) > 128 {
		return fmt.Errorf("corpusd: campaign name must be 1-128 characters")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("corpusd: campaign name %q: only [A-Za-z0-9._-] allowed", name)
		}
	}
	if name == "." || name == ".." {
		return fmt.Errorf("corpusd: campaign name %q reserved", name)
	}
	return nil
}

// ErrCampaignMismatch is returned when an existing campaign is re-created
// with a different map size.
var ErrCampaignMismatch = errors.New("corpusd: campaign exists with different map size")

// ErrNotFound is returned for operations on unknown campaigns.
var ErrNotFound = errors.New("corpusd: campaign not found")

// CreateCampaign creates a campaign, idempotently: re-creating an existing
// name with the same map size succeeds (created=false); a size mismatch is
// ErrCampaignMismatch.
func (s *Store) CreateCampaign(name string, mapSize int) (created bool, err error) {
	if err := validCampaignName(name); err != nil {
		return false, err
	}
	if err := core.CheckMapSize(mapSize); err != nil {
		return false, fmt.Errorf("corpusd: campaign %s map size %d: %w", name, mapSize, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := s.campaigns[name]; c != nil {
		if size := c.hub.MapSize(); size != mapSize {
			return false, fmt.Errorf("%w: %s has %d, requested %d", ErrCampaignMismatch, name, size, mapSize)
		}
		return false, nil
	}
	var j *journal
	if s.dir != "" {
		if j, err = createJournal(filepath.Join(s.dir, name), name, mapSize); err != nil {
			return false, err
		}
	}
	c, err := newCampaign(mapSize, j)
	if err != nil {
		return false, err
	}
	s.campaigns[name] = c
	s.reg.Event("campaign_created", fmt.Sprintf("%s: map size %d", name, mapSize))
	return true, nil
}

func (s *Store) campaign(name string) (*campaign, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.campaigns[name]
	if c == nil {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return c, nil
}

// Campaigns lists campaign names, sorted.
func (s *Store) Campaigns() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.campaigns))
	//bigmap:nondeterministic-ok iteration feeds the sort below
	for name := range s.campaigns {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Join registers (or re-attaches) worker in the named campaign.
func (s *Store) Join(campaignName, worker string) (dist.JoinInfo, error) {
	if worker == "" || len(worker) > 128 {
		return dist.JoinInfo{}, fmt.Errorf("corpusd: worker name must be 1-128 characters")
	}
	c, err := s.campaign(campaignName)
	if err != nil {
		return dist.JoinInfo{}, err
	}
	return c.hub.Join(worker)
}

// Push accepts one batch into the named campaign (dist.Hub.Push: the
// journal persists content files then the ledger record before the Hub
// commits). Replaying the last accepted sequence returns its stored receipt
// without re-applying anything.
func (s *Store) Push(campaignName, worker string, b dist.Batch) (dist.Receipt, error) {
	start := s.telSyncNS.Start()
	c, err := s.campaign(campaignName)
	if err != nil {
		return dist.Receipt{}, err
	}
	rcpt, err := c.hub.Push(worker, b)
	if err != nil {
		return dist.Receipt{}, err
	}
	st, _ := c.hub.Stats() //bigmap:err-ok Hub.Stats cannot fail
	s.telBatches.Inc()
	s.telDedup.Add(uint64(rcpt.DupInputs))
	s.telWords.Add(uint64(rcpt.DeltaWords))
	s.telInputs.Set(int64(st.Inputs))
	s.telSyncNS.Done(start)
	return rcpt, nil
}

// Pull delivers every input pushed by other workers since this worker's
// last pull, in global arrival order, and advances (and persists) the
// cursor.
func (s *Store) Pull(campaignName, worker string) ([]dist.Pulled, error) {
	c, err := s.campaign(campaignName)
	if err != nil {
		return nil, err
	}
	return c.hub.Pull(worker)
}

// Stats snapshots the named campaign.
func (s *Store) Stats(campaignName string) (dist.Stats, error) {
	c, err := s.campaign(campaignName)
	if err != nil {
		return dist.Stats{}, err
	}
	return c.hub.Stats()
}

// Input returns one stored input by content hash.
func (s *Store) Input(campaignName, hash string) ([]byte, error) {
	c, err := s.campaign(campaignName)
	if err != nil {
		return nil, err
	}
	in, ok := c.hub.Input(hash)
	if !ok {
		return nil, fmt.Errorf("%w: input %s", ErrNotFound, hash)
	}
	return in, nil
}

// Crashes returns the campaign's deduplicated crash buckets sorted by key.
func (s *Store) Crashes(campaignName string) ([]dist.Crash, error) {
	c, err := s.campaign(campaignName)
	if err != nil {
		return nil, err
	}
	return c.hub.Crashes(), nil
}

// Ledger re-reads the named campaign's ledger records from disk (memory-only
// stores return nil). The returned chain has already been verified.
func (s *Store) Ledger(campaignName string) ([]Record, error) {
	c, err := s.campaign(campaignName)
	if err != nil {
		return nil, err
	}
	if c.journal == nil {
		return nil, nil
	}
	return c.journal.records()
}

// MapSize returns the named campaign's coverage key space.
func (s *Store) MapSize(campaignName string) (int, error) {
	c, err := s.campaign(campaignName)
	if err != nil {
		return 0, err
	}
	return c.hub.MapSize(), nil
}

// UnionSnapshot copies out the campaign union's virgin bytes.
func (s *Store) UnionSnapshot(campaignName string) ([]byte, error) {
	c, err := s.campaign(campaignName)
	if err != nil {
		return nil, err
	}
	return c.hub.UnionSnapshot(), nil
}
