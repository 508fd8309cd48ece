// Package dist is the campaign sync boundary, in one process or across
// machines: a Syncer is a content-addressed rendezvous every worker pushes
// its discoveries into and pulls its peers' discoveries out of. There is
// one state machine behind it and one wire form:
//
//   - Hub: the state machine. Every multi-instance internal/parallel
//     campaign syncs through one (a private Hub unless configured
//     otherwise), and every campaign a bigmap-corpusd daemon hosts is one
//     plus a Journal that makes it durable (internal/corpusd).
//   - Client: HTTP/JSON against a bigmap-corpusd daemon, so N bigmap-fuzz
//     processes on M machines drive one campaign.
//
// The unit of exchange is a Batch: the worker's new queue entries, its new
// crash buckets, and a virgin-map delta (core.VirginDelta — only the 8-byte
// words that changed since the worker's previous publish, not the whole
// map). Inputs and crashes are deduplicated by content hash server-side, so
// the common case of two workers finding the same input costs one stored
// copy and a dedup counter bump. Deltas AND-merge into the campaign union —
// commutative, associative, idempotent — so any interleaving of pushes from
// any set of workers converges to the same union coverage.
//
// Batches carry a per-worker sequence number and pushes are idempotent:
// replaying an already-accepted sequence returns the stored receipt instead
// of double-counting, which makes retry-after-timeout safe and lets a
// restarted worker (fresh local state, same name) re-push its whole corpus
// and have the store absorb it as duplicates. Join returns the server-side
// sequence cursor so the restarted worker continues the chain where it left
// off. The wire store additionally records every accepted batch in a
// hash-chained ledger (see internal/corpusd) so campaign progress is
// tamper-evident and replayable.
package dist

import "errors"

// Syncer is the campaign-wide sync boundary: a rendezvous workers join,
// push discoveries to, and pull peer discoveries from. Implementations must
// be safe for concurrent use by multiple workers.
type Syncer interface {
	// Join registers (or re-attaches) a worker by name and returns its
	// server-side cursors. Worker names must be unique within a campaign:
	// re-joining an existing name resumes that worker's sequence chain and
	// pull cursor, which is the restart path — two live workers sharing a
	// name will trample each other's sequence numbers and fail with
	// ErrSeqGap.
	Join(worker string) (JoinInfo, error)
	// Push submits one batch. b.Seq must be the worker's next sequence
	// number (JoinInfo.LastSeq+1, then +1 per accepted batch). Replaying
	// the last accepted sequence returns its stored receipt; any other gap
	// is ErrSeqGap.
	Push(worker string, b Batch) (Receipt, error)
	// Pull returns every input pushed by other workers since this worker's
	// last pull, in global arrival order, and advances the pull cursor.
	Pull(worker string) ([]Pulled, error)
	// Stats snapshots the campaign-wide store counters.
	Stats() (Stats, error)
}

// Syncer errors. The wire client maps HTTP failure responses back onto
// these, so callers can errors.Is across both implementations.
var (
	// ErrUnknownWorker is returned for Push/Pull from a name that never
	// joined.
	ErrUnknownWorker = errors.New("dist: unknown worker (join first)")
	// ErrSeqGap is returned when a pushed batch's sequence number is
	// neither the next expected one nor a replay of the last accepted one.
	ErrSeqGap = errors.New("dist: batch sequence gap")
	// ErrSizeMismatch is returned when a batch's virgin delta describes a
	// different map geometry than the campaign's.
	ErrSizeMismatch = errors.New("dist: virgin delta size mismatch")
)

// JoinInfo is a worker's server-side resume state.
type JoinInfo struct {
	// LastSeq is the highest batch sequence the store has accepted from
	// this worker (0 for a new worker); the next push must use LastSeq+1.
	LastSeq uint64 `json:"last_seq"`
	// Cursor is the worker's pull position in the global input log.
	Cursor int `json:"cursor"`
}

// Crash is one crash bucket in a batch, carrying the Crashwalk-style dedup
// key computed by the worker (internal/crash.KeyOf) plus the fields triage
// output needs.
type Crash struct {
	Key        uint64 `json:"key"`
	Site       uint32 `json:"site"`
	StackDepth int    `json:"stack_depth"`
	Input      []byte `json:"input,omitempty"`
}

// Batch is one worker's sync-boundary publish.
type Batch struct {
	// Seq is the worker's batch sequence number (1-based, dense).
	Seq uint64 `json:"seq"`
	// Inputs holds the worker's queue entries not yet pushed, in queue
	// order.
	Inputs [][]byte `json:"inputs,omitempty"`
	// Crashes holds crash buckets not yet pushed.
	Crashes []Crash `json:"crashes,omitempty"`
	// Delta is an encoded core.VirginDelta carrying the worker's coverage
	// words that changed since its previous push; nil when nothing changed.
	Delta []byte `json:"delta,omitempty"`
}

// Receipt is the store's acknowledgement of an accepted (or replayed)
// batch.
type Receipt struct {
	// Seq echoes the accepted batch sequence.
	Seq uint64 `json:"seq"`
	// NewInputs and DupInputs split the batch's inputs into first-seen and
	// content-duplicate.
	NewInputs int `json:"new_inputs"`
	DupInputs int `json:"dup_inputs"`
	// NewCrashes counts crash buckets first seen in this batch.
	NewCrashes int `json:"new_crashes"`
	// DeltaWords counts the virgin-delta words merged.
	DeltaWords int `json:"delta_words"`
	// UnionDiscovered is the campaign union's discovered-key count after
	// the merge.
	UnionDiscovered int `json:"union_edges"`
}

// Pulled is one input delivered by Pull.
type Pulled struct {
	// Hash is the input's content address (hex SHA-256).
	Hash string `json:"hash"`
	// Input is the input bytes.
	Input []byte `json:"input"`
}

// Stats is a point-in-time snapshot of a campaign store.
type Stats struct {
	// MapSize is the campaign's coverage key space.
	MapSize int `json:"map_size"`
	// Inputs is the number of distinct stored inputs.
	Inputs int `json:"inputs"`
	// Crashes is the number of distinct crash buckets.
	Crashes int `json:"crashes"`
	// Workers is the number of joined workers.
	Workers int `json:"workers"`
	// Batches counts accepted batches (replays excluded).
	Batches int `json:"batches"`
	// DedupHits counts pushed inputs that were already stored.
	DedupHits uint64 `json:"dedup_hits"`
	// DeltaWords counts virgin-delta words merged over the campaign's
	// lifetime.
	DeltaWords uint64 `json:"delta_words"`
	// UnionDiscovered is the campaign union's discovered-key count.
	UnionDiscovered int `json:"union_edges"`
}
