package dist

import (
	"fmt"

	"github.com/bigmap/bigmap/internal/core"
	"github.com/bigmap/bigmap/internal/fuzzer"
	"github.com/bigmap/bigmap/internal/telemetry"
)

// Worker drives one fuzzer instance's side of the sync protocol: it tracks
// what has already been pushed (queue cursor, crash-key set, last published
// virgin state) and turns each sync boundary into one Push and one Pull.
//
// A Worker holds only soft state. After a crash, revival or checkpoint
// resume, recreate it with NewWorker under the same name: the first Push
// re-sends the whole queue (absorbed server-side as duplicates), the first
// delta re-publishes the full virgin state (AND-idempotent), and Join
// resumes the sequence chain where the store left off — nothing about the
// Worker needs to be checkpointed.
//
// Not safe for concurrent use; like the fuzzer it wraps, a Worker belongs
// to one goroutine.
type Worker struct {
	f    *fuzzer.Fuzzer
	name string
	s    Syncer
	size int

	seq           uint64 // next push uses seq+1; advanced only on success
	pushedInputs  int    // queue entries already pushed
	pushedCrashes map[uint64]bool
	last          []byte // virgin state as of the last successful push
	union         int    // campaign union discovered keys, per the last receipt

	// pending is a built-but-unacknowledged batch. A failed Push leaves it
	// in place and the next Push retries it verbatim under the same
	// sequence number: rebuilding would be unsound, because the store may
	// have accepted the original (response lost) and would answer the
	// replay with the stored receipt — entries added since would be marked
	// pushed without ever reaching the store.
	pending        *Batch
	pendingEntries int    // queue length the pending batch covers
	pendingSnap    []byte // virgin snapshot the pending delta publishes

	telSync    *telemetry.Histogram
	telPushed  *telemetry.Counter
	telDups    *telemetry.Counter
	telImports *telemetry.Counter
	telWords   *telemetry.Counter
	telUnion   *telemetry.Gauge
}

// NewWorker joins the syncer under name and wraps f for sync-boundary
// exchange. size is the campaign's coverage key space (the fuzzer
// template's defaulted map size) — the geometry deltas are published in.
// Telemetry handles come from f's registry and are nil-safe.
func NewWorker(f *fuzzer.Fuzzer, name string, s Syncer, size int) (*Worker, error) {
	if _, err := core.NewLockedVirginUnion(size); err != nil {
		return nil, fmt.Errorf("dist: worker map size %d: %w", size, err)
	}
	info, err := s.Join(name)
	if err != nil {
		return nil, fmt.Errorf("dist: join %q: %w", name, err)
	}
	reg := f.Telemetry()
	return &Worker{
		f:             f,
		name:          name,
		s:             s,
		size:          size,
		seq:           info.LastSeq,
		pushedCrashes: make(map[uint64]bool),
		telSync:       reg.Histogram("dist_sync_ns"),
		telPushed:     reg.Counter("dist_pushed_inputs_total"),
		telDups:       reg.Counter("dist_dup_inputs_total"),
		telImports:    reg.Counter("dist_imports_total"),
		telWords:      reg.Counter("dist_delta_words_total"),
		telUnion:      reg.Gauge("dist_union_edges"),
	}, nil
}

// Name returns the worker's campaign-unique name.
func (w *Worker) Name() string { return w.name }

// Syncer returns the syncer this worker exchanges through (for campaign-wide
// stats queries).
func (w *Worker) Syncer() Syncer { return w.s }

// UnionDiscovered returns the campaign union's discovered-key count as of
// this worker's last accepted push (0 before the first).
func (w *Worker) UnionDiscovered() int { return w.union }

// Push publishes everything new since the last successful push: unseen
// queue entries, unseen crash buckets, and the virgin-delta of coverage
// words that changed. On error nothing is committed locally, so the next
// Push retries the same batch under the same sequence number — which the
// store treats idempotently.
func (w *Worker) Push() (Receipt, error) {
	start := w.telSync.Start()
	if w.pending == nil {
		entries := w.f.Queue().Entries()
		inputs := make([][]byte, 0, len(entries)-w.pushedInputs)
		for _, e := range entries[w.pushedInputs:] {
			inputs = append(inputs, e.Input)
		}
		var crashes []Crash
		for _, rec := range w.f.Crashes().Records() {
			if w.pushedCrashes[rec.Key] {
				continue
			}
			crashes = append(crashes, Crash{
				Key:        rec.Key,
				Site:       rec.Site,
				StackDepth: rec.StackDepth,
				Input:      rec.Input,
			})
		}
		snap := w.virginSnapshot()
		d := core.DiffVirginBytes(w.last, snap)
		var delta []byte
		if len(d.Words) > 0 {
			delta = core.EncodeVirginDelta(d)
		}
		w.pending = &Batch{
			Seq:     w.seq + 1,
			Inputs:  inputs,
			Crashes: crashes,
			Delta:   delta,
		}
		w.pendingEntries = len(entries)
		w.pendingSnap = snap
	}
	rcpt, err := w.s.Push(w.name, *w.pending)
	if err != nil {
		return Receipt{}, err
	}
	w.seq = rcpt.Seq
	w.pushedInputs = w.pendingEntries
	for _, cr := range w.pending.Crashes {
		w.pushedCrashes[cr.Key] = true
	}
	w.last = w.pendingSnap
	w.union = rcpt.UnionDiscovered
	w.telPushed.Add(uint64(len(w.pending.Inputs)))
	w.telDups.Add(uint64(rcpt.DupInputs))
	w.telWords.Add(uint64(rcpt.DeltaWords))
	w.telUnion.Set(int64(rcpt.UnionDiscovered))
	w.pending, w.pendingSnap = nil, nil
	w.telSync.Done(start)
	return rcpt, nil
}

// Pull imports every peer input published since the last pull, keeping the
// ones that add local coverage (fuzzer.ImportInput — AFL-style corpus
// sync). Returns how many were kept.
func (w *Worker) Pull() (imported int, err error) {
	start := w.telSync.Start()
	pulled, err := w.s.Pull(w.name)
	if err != nil {
		return 0, err
	}
	for _, p := range pulled {
		if w.f.ImportInput(p.Input) {
			imported++
		}
	}
	w.telImports.Add(uint64(imported))
	w.telSync.Done(start)
	return imported, nil
}

// Sync is one full boundary: Push then Pull.
func (w *Worker) Sync() error {
	if _, err := w.Push(); err != nil {
		return err
	}
	_, err := w.Pull()
	return err
}

// virginSnapshot renders the fuzzer's current coverage as campaign-geometry
// virgin bytes, by folding its map into a fresh union (the CoverageMerger
// translation from per-instance dense slots to raw keys).
func (w *Worker) virginSnapshot() []byte {
	u, err := core.NewLockedVirginUnion(w.size)
	if err != nil {
		// Size was validated in NewWorker; an error here is unreachable.
		panic(fmt.Sprintf("dist: virgin snapshot: %v", err))
	}
	w.f.MergeVirginInto(u)
	return u.Snapshot()
}
