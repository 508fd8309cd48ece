package dist

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"

	"github.com/bigmap/bigmap/internal/core"
	"github.com/bigmap/bigmap/internal/telemetry"
)

// HashInput returns an input's content address: lowercase hex SHA-256 of
// its bytes. Both Syncer implementations and the corpusd store use this one
// function, so addresses agree across process lines.
func HashInput(input []byte) string {
	sum := sha256.Sum256(input)
	return hex.EncodeToString(sum[:])
}

// Journal makes a Hub durable. The Hub calls it with its lock held, so the
// calls for one Hub never overlap.
type Journal interface {
	// Commit persists one accepted batch. The Hub calls it after the
	// sequence check and dedup and before it changes any in-memory state:
	// an error rejects the batch, the Hub stays exactly as it was, and a
	// retry under the same sequence number is accepted later.
	Commit(c Commit) error
	// SaveCursors persists every worker's cursors. The Hub calls it after
	// a Join that added a worker, an accepted Push, and a Pull that moved
	// a cursor.
	SaveCursors(cursors map[string]JoinInfo) error
}

// Commit is one accepted batch reduced to what changes the store: the
// inputs and crash buckets it had not seen, the virgin delta and the count
// of duplicate inputs. A Journal persists it; Replay applies it again.
type Commit struct {
	// Worker and Seq identify the batch in the pusher's sequence chain.
	Worker string
	Seq    uint64
	// Inputs holds the first-seen inputs in arrival order.
	Inputs []Pulled
	// Crashes holds the first-seen crash buckets.
	Crashes []Crash
	// Delta is the batch's encoded virgin delta (nil when it carried none).
	Delta []byte
	// Dups counts the batch's inputs the store already held.
	Dups int
}

// Hub is the Syncer every campaign syncs through: the private rendezvous of
// a single-process campaign's instances, and — with a Journal — the state
// machine behind each campaign a corpusd daemon hosts. All methods are safe
// for concurrent use.
type Hub struct {
	mu sync.Mutex

	size       int                     // immutable after New
	journal    Journal                 // immutable after New; nil = memory only
	inputs     map[string][]byte       // guarded by mu; content hash -> bytes
	order      []pushedInput           // guarded by mu; global arrival order
	crashes    map[uint64]Crash        // guarded by mu; dedup key -> bucket
	union      []byte                  // guarded by mu; campaign virgin bytes
	discovered int                     // guarded by mu; union discovered keys
	workers    map[string]*workerState // guarded by mu
	batches    int                     // guarded by mu; accepted batches
	dedupHits  uint64                  // guarded by mu
	deltaWords uint64                  // guarded by mu

	// Telemetry mirrors; atomic and nil-safe, deliberately outside mu.
	telBatches *telemetry.Counter
	telDedup   *telemetry.Counter
	telWords   *telemetry.Counter
	telUnion   *telemetry.Gauge
}

// pushedInput is one slot of the global arrival log: which input (by hash)
// and which worker pushed it first.
type pushedInput struct {
	hash string
	src  string
}

// workerState is one joined worker's server-side cursors.
type workerState struct {
	cursor      int     // guarded by mu (Hub.mu); pull position in order
	lastSeq     uint64  // guarded by mu (Hub.mu); highest accepted batch seq
	lastReceipt Receipt // guarded by mu (Hub.mu); receipt for lastSeq replays
}

// NewHub creates an in-memory campaign store for the given coverage key
// space. reg may be nil (telemetry off).
func NewHub(size int, reg *telemetry.Registry) (*Hub, error) {
	return NewJournaledHub(size, reg, nil)
}

// NewJournaledHub creates a campaign store that persists every accepted
// batch and cursor change through j before making it visible. A nil j is
// NewHub. State recovered from the journal is loaded with Replay and
// RestoreCursors before the Hub is shared.
func NewJournaledHub(size int, reg *telemetry.Registry, j Journal) (*Hub, error) {
	if err := core.CheckMapSize(size); err != nil {
		return nil, fmt.Errorf("dist: hub map size %d: %w", size, err)
	}
	union := make([]byte, size)
	core.FillVirgin(union)
	return &Hub{
		size:       size,
		journal:    j,
		inputs:     make(map[string][]byte),
		crashes:    make(map[uint64]Crash),
		union:      union,
		workers:    make(map[string]*workerState),
		telBatches: reg.Counter("dist_hub_batches_total"),
		telDedup:   reg.Counter("dist_hub_dedup_hits_total"),
		telWords:   reg.Counter("dist_hub_delta_words_total"),
		telUnion:   reg.Gauge("dist_hub_union_edges"),
	}, nil
}

// MapSize returns the campaign's coverage key space.
func (h *Hub) MapSize() int { return h.size }

// Join registers worker (or re-attaches to its existing state).
func (h *Hub) Join(worker string) (JoinInfo, error) {
	if worker == "" {
		return JoinInfo{}, fmt.Errorf("dist: empty worker name")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	w := h.workers[worker]
	if w == nil {
		w = &workerState{}
		h.workers[worker] = w
		if err := h.saveCursorsLocked(); err != nil {
			delete(h.workers, worker)
			return JoinInfo{}, err
		}
	}
	return JoinInfo{LastSeq: w.lastSeq, Cursor: w.cursor}, nil
}

// Push accepts one batch: dedups inputs and crashes by content, journals
// what is new, AND-merges the virgin delta into the campaign union, and
// returns the receipt. Replaying the last accepted sequence returns its
// stored receipt.
func (h *Hub) Push(worker string, b Batch) (Receipt, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	w := h.workers[worker]
	if w == nil {
		return Receipt{}, fmt.Errorf("%w: %q", ErrUnknownWorker, worker)
	}
	if b.Seq == w.lastSeq && b.Seq != 0 {
		return w.lastReceipt, nil
	}
	if b.Seq != w.lastSeq+1 {
		return Receipt{}, fmt.Errorf("%w: worker %q pushed seq %d, want %d",
			ErrSeqGap, worker, b.Seq, w.lastSeq+1)
	}
	d, err := h.decodeDelta(worker, b.Delta)
	if err != nil {
		return Receipt{}, err
	}
	c := h.dedupLocked(worker, b)
	if h.journal != nil {
		if err := h.journal.Commit(c); err != nil {
			return Receipt{}, err
		}
	}
	rcpt := h.applyLocked(w, c, d)
	// The batch is committed; a failed cursor save is reported so the
	// worker retries, and the retry is answered from lastReceipt.
	if err := h.saveCursorsLocked(); err != nil {
		return Receipt{}, err
	}
	return rcpt, nil
}

// Replay applies a batch a Journal recorded, without journaling it again
// and without the sequence check: the recovery path that rebuilds a Hub
// from its journal, one Commit at a time in journal order.
func (h *Hub) Replay(c Commit) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	d, err := h.decodeDelta(c.Worker, c.Delta)
	if err != nil {
		return err
	}
	w := h.workers[c.Worker]
	if w == nil {
		w = &workerState{}
		h.workers[c.Worker] = w
	}
	h.applyLocked(w, c, d)
	return nil
}

// RestoreCursors loads persisted cursors after Replay. Pull positions past
// the replayed log are clamped to its end; a sequence tail behind the one
// Replay recovered keeps the replayed one, since the journal is written
// before the cursors.
func (h *Hub) RestoreCursors(cursors map[string]JoinInfo) {
	h.mu.Lock()
	defer h.mu.Unlock()
	//bigmap:nondeterministic-ok each worker's cursor is set independently
	for name, info := range cursors {
		w := h.workers[name]
		if w == nil {
			w = &workerState{}
			h.workers[name] = w
		}
		w.cursor = min(info.Cursor, len(h.order))
		w.lastSeq = max(w.lastSeq, info.LastSeq)
	}
}

// decodeDelta parses and size-checks a batch's virgin delta; an empty
// delta decodes to no words.
func (h *Hub) decodeDelta(worker string, delta []byte) (core.VirginDelta, error) {
	if len(delta) == 0 {
		return core.VirginDelta{}, nil
	}
	d, err := core.DecodeVirginDelta(delta)
	if err != nil {
		return core.VirginDelta{}, fmt.Errorf("dist: worker %q delta: %w", worker, err)
	}
	if d.Size != h.size {
		return core.VirginDelta{}, fmt.Errorf("%w: delta for %d-key map, campaign has %d",
			ErrSizeMismatch, d.Size, h.size)
	}
	return d, nil
}

// dedupLocked splits a sequence-checked batch into what the store has not
// seen and a duplicate count, without changing anything.
func (h *Hub) dedupLocked(worker string, b Batch) Commit {
	c := Commit{Worker: worker, Seq: b.Seq, Delta: b.Delta}
	fresh := make(map[string]bool)
	for _, in := range b.Inputs {
		hash := HashInput(in)
		if _, ok := h.inputs[hash]; ok || fresh[hash] {
			c.Dups++
			continue
		}
		fresh[hash] = true
		c.Inputs = append(c.Inputs, Pulled{Hash: hash, Input: in})
	}
	freshCrash := make(map[uint64]bool)
	for _, cr := range b.Crashes {
		if _, ok := h.crashes[cr.Key]; ok || freshCrash[cr.Key] {
			continue
		}
		freshCrash[cr.Key] = true
		c.Crashes = append(c.Crashes, cr)
	}
	return c
}

// applyLocked folds a deduplicated batch into the store and records it as
// w's last accepted one. Nothing here can fail: everything that could was
// checked before the journal saw the batch.
func (h *Hub) applyLocked(w *workerState, c Commit, d core.VirginDelta) Receipt {
	rcpt := Receipt{Seq: c.Seq, NewInputs: len(c.Inputs), DupInputs: c.Dups, NewCrashes: len(c.Crashes)}
	for _, p := range c.Inputs {
		h.inputs[p.Hash] = append([]byte(nil), p.Input...)
		h.order = append(h.order, pushedInput{hash: p.Hash, src: c.Worker})
	}
	for _, cr := range c.Crashes {
		cr.Input = append([]byte(nil), cr.Input...)
		h.crashes[cr.Key] = cr
	}
	if len(d.Words) > 0 {
		disc, err := d.Apply(h.union)
		if err != nil {
			// A decoded delta of the campaign's size cannot fail to apply.
			panic(fmt.Sprintf("dist: apply delta: %v", err))
		}
		h.discovered += disc
		h.deltaWords += uint64(len(d.Words))
		rcpt.DeltaWords = len(d.Words)
	}
	h.batches++
	h.dedupHits += uint64(c.Dups)
	rcpt.UnionDiscovered = h.discovered
	w.lastSeq = c.Seq
	w.lastReceipt = rcpt
	h.telBatches.Inc()
	h.telDedup.Add(uint64(rcpt.DupInputs))
	h.telWords.Add(uint64(rcpt.DeltaWords))
	h.telUnion.Set(int64(h.discovered))
	return rcpt
}

// saveCursorsLocked hands every worker's cursors to the journal (no-op
// without one).
func (h *Hub) saveCursorsLocked() error {
	if h.journal == nil {
		return nil
	}
	cursors := make(map[string]JoinInfo, len(h.workers))
	//bigmap:nondeterministic-ok map-to-map copy; order cannot matter
	for name, w := range h.workers {
		cursors[name] = JoinInfo{LastSeq: w.lastSeq, Cursor: w.cursor}
	}
	return h.journal.SaveCursors(cursors)
}

// Pull delivers every input pushed by other workers since this worker's
// last pull, in global arrival order. Inputs first pushed by the puller
// itself are skipped — the puller already has them.
func (h *Hub) Pull(worker string) ([]Pulled, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	w := h.workers[worker]
	if w == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownWorker, worker)
	}
	var out []Pulled
	for _, p := range h.order[w.cursor:] {
		if p.src == worker {
			continue
		}
		out = append(out, Pulled{
			Hash:  p.hash,
			Input: append([]byte(nil), h.inputs[p.hash]...),
		})
	}
	if prev := w.cursor; prev != len(h.order) {
		w.cursor = len(h.order)
		if err := h.saveCursorsLocked(); err != nil {
			w.cursor = prev
			return nil, err
		}
	}
	return out, nil
}

// Stats snapshots the store counters.
func (h *Hub) Stats() (Stats, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return Stats{
		MapSize:         h.size,
		Inputs:          len(h.inputs),
		Crashes:         len(h.crashes),
		Workers:         len(h.workers),
		Batches:         h.batches,
		DedupHits:       h.dedupHits,
		DeltaWords:      h.deltaWords,
		UnionDiscovered: h.discovered,
	}, nil
}

// Input returns one stored input by content hash.
func (h *Hub) Input(hash string) ([]byte, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	in, ok := h.inputs[hash]
	return append([]byte(nil), in...), ok
}

// UnionSnapshot copies out the campaign union's virgin bytes (0xFF =
// undiscovered).
func (h *Hub) UnionSnapshot() []byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]byte(nil), h.union...)
}

// Crashes returns the deduplicated crash buckets sorted by key.
func (h *Hub) Crashes() []Crash {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Crash, 0, len(h.crashes))
	//bigmap:nondeterministic-ok iteration feeds the sort below
	for _, cr := range h.crashes {
		out = append(out, cr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
