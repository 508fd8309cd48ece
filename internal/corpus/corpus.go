// Package corpus maintains the fuzzer's seed pool: the queue of interesting
// test cases, their calibration statistics, and AFL's top-rated/favored
// culling that focuses mutation effort on a minimal covering set of fast,
// small entries.
package corpus

import (
	"errors"
	"fmt"
	"slices"
)

// Entry is one queue item. Fields mirror AFL's queue_entry.
type Entry struct {
	// Input is the test case bytes. Entries own their input; callers must
	// not mutate it after Add.
	Input []byte
	// Cycles is the calibrated average execution cost (the exec_us
	// analogue in our virtual-time substrate).
	Cycles uint64
	// EdgeCount is the number of coverage slots the entry touches
	// (AFL's bitmap_size).
	EdgeCount int
	// Touched lists the stable identities of the coverage slots the entry
	// touches, used for top-rated bookkeeping. Sorted ascending; it must not
	// change after Add, which caches it as a bitset for Cull.
	Touched []uint32
	// PathHash is the classified-trace digest, for path comparison.
	PathHash uint64
	// Depth is the mutation genealogy depth (seeds are 0).
	Depth int
	// FoundBy records provenance: "seed", "det", "havoc", "splice",
	// "sync".
	FoundBy string
	// Favored marks the entry as part of the minimal covering set; the
	// scheduler strongly prefers favored entries.
	Favored bool
	// WasFuzzed is set after the entry has been through a full fuzz round.
	WasFuzzed bool
	// WasTrimmed is set after the trim stage has processed the entry.
	WasTrimmed bool
	// FuzzLevel counts completed fuzz rounds (AFLFast's s(i)).
	FuzzLevel int

	// coverWords and coverBits are Touched as a sparse bitset, built once by
	// Add or AddRestored for Cull: bit s&63 of coverBits[k] is set for every
	// touched slot s with s>>6 == coverWords[k].
	coverWords []uint32
	coverBits  []uint64
}

// buildCover fills e's sparse bitset from Touched. Runs of slots that share
// a bitset word (all of them, when Touched is sorted) share one entry.
func (e *Entry) buildCover() {
	n := 0
	for i, s := range e.Touched {
		if i == 0 || s>>6 != e.Touched[i-1]>>6 {
			n++
		}
	}
	e.coverWords = make([]uint32, 0, n) //bigmap:alloc-ok discovery-only: built once per corpus entry, not per execution
	e.coverBits = make([]uint64, 0, n)  //bigmap:alloc-ok discovery-only: built once per corpus entry, not per execution
	for i, s := range e.Touched {
		if i == 0 || s>>6 != e.Touched[i-1]>>6 {
			e.coverWords = append(e.coverWords, s>>6)
			e.coverBits = append(e.coverBits, 0)
		}
		e.coverBits[len(e.coverBits)-1] |= 1 << (s & 63)
	}
}

// favFactor is AFL's fav_factor: smaller is better (fast and small).
func favFactor(e *Entry) uint64 {
	return e.Cycles * uint64(len(e.Input))
}

// Queue is the seed pool. Not safe for concurrent use.
type Queue struct {
	entries []*Entry
	// slots lists every coverage slot with a champion, strictly ascending;
	// champs[i] is the champion of slots[i] (AFL's top_rated).
	slots  []uint32
	champs []*Entry
	// covered is Cull's scratch bitset, indexed by slot. It is all zero
	// between calls.
	covered []uint64
	dirty   bool
}

// NewQueue creates an empty queue.
func NewQueue() *Queue {
	return &Queue{}
}

// Len returns the number of entries.
func (q *Queue) Len() int { return len(q.entries) }

// Get returns entry i in insertion order.
func (q *Queue) Get(i int) *Entry { return q.entries[i] }

// Add appends an entry and updates the top-rated table: for every coverage
// slot the entry touches, it becomes the slot's champion if it has a better
// (smaller) fav factor than the current one — AFL's update_bitmap_score.
// The current champion's fav factor is read live, because trim changes it
// after Add.
func (q *Queue) Add(e *Entry) {
	q.entries = append(q.entries, e) //bigmap:alloc-ok discovery-only: runs once per new corpus entry, not per execution
	e.buildCover()
	f := favFactor(e)
	fresh, i := 0, 0
	for _, slot := range e.Touched {
		j, found := slices.BinarySearch(q.slots[i:], slot)
		i += j
		if !found {
			fresh++
			continue
		}
		cur := q.champs[i]
		if g := favFactor(cur); f < g || (f == g && e.EdgeCount > cur.EdgeCount) {
			q.champs[i] = e
			q.dirty = true
		}
	}
	if fresh == 0 {
		return
	}
	// Merge the fresh slots in from the back, so every existing pair moves
	// at most once.
	n := len(q.slots)
	q.slots = slices.Grow(q.slots, fresh)[:n+fresh]
	q.champs = slices.Grow(q.champs, fresh)[:n+fresh]
	i, w := n-1, n+fresh-1
	for t := len(e.Touched) - 1; fresh > 0; t-- {
		slot := e.Touched[t]
		for i >= 0 && q.slots[i] > slot {
			q.slots[w], q.champs[w] = q.slots[i], q.champs[i]
			i, w = i-1, w-1
		}
		if i >= 0 && q.slots[i] == slot {
			continue
		}
		q.slots[w], q.champs[w] = slot, e
		w, fresh = w-1, fresh-1
	}
	q.dirty = true
}

// Cull recomputes the favored set with AFL's cull_queue algorithm: walk the
// coverage slots in ascending order; for each slot not yet covered, favor
// its top-rated champion and mark everything the champion touches as
// covered, by ORing the champion's cached bitset into the covered set a
// word at a time. Cull is a no-op when no champion changed since the last
// call.
func (q *Queue) Cull() {
	if !q.dirty {
		return
	}
	q.dirty = false
	for _, e := range q.entries {
		e.Favored = false
	}
	if len(q.slots) == 0 {
		return
	}
	if need := int(q.slots[len(q.slots)-1]>>6) + 1; len(q.covered) < need {
		q.covered = make([]uint64, need)
	}
	covered := q.covered
	for i, slot := range q.slots {
		if covered[slot>>6]&(1<<(slot&63)) != 0 {
			continue
		}
		champ := q.champs[i]
		champ.Favored = true
		for k, w := range champ.coverWords {
			// A slot above the last table slot is never looked up.
			if int(w) < len(covered) {
				covered[w] |= champ.coverBits[k]
			}
		}
	}
	clear(covered)
}

// FavoredCount returns the number of favored entries (after Cull).
func (q *Queue) FavoredCount() int {
	n := 0
	for _, e := range q.entries {
		if e.Favored {
			n++
		}
	}
	return n
}

// PendingFavored returns the number of favored entries not yet fuzzed, which
// drives AFL's skip probabilities.
func (q *Queue) PendingFavored() int {
	n := 0
	for _, e := range q.entries {
		if e.Favored && !e.WasFuzzed {
			n++
		}
	}
	return n
}

// Entries returns a copy of the entry list (the entries themselves are
// shared).
func (q *Queue) Entries() []*Entry {
	out := make([]*Entry, len(q.entries))
	copy(out, q.entries)
	return out
}

// AddRestored appends an entry without top-rated accounting, for checkpoint
// replay. The top-rated table reflects the exact interleaving of Add and
// trim calls in the original campaign (trim changes fav factors after Add),
// so a resume restores it verbatim via RestoreTopRated instead of replaying
// Add.
func (q *Queue) AddRestored(e *Entry) {
	q.entries = append(q.entries, e)
	e.buildCover()
	q.dirty = true
}

// TopRated returns the slot-champion table as (slot, entry index) pairs with
// slots ascending — the queue's entire derived state beyond the entry list,
// captured for checkpointing.
func (q *Queue) TopRated() (slots []uint32, entryIdx []int) {
	index := make(map[*Entry]int, len(q.entries))
	for i, e := range q.entries {
		index[e] = i
	}
	entryIdx = make([]int, len(q.champs))
	for i, e := range q.champs {
		entryIdx[i] = index[e]
	}
	return slices.Clone(q.slots), entryIdx
}

// RestoreTopRated installs a checkpointed slot-champion table. Entries are
// referenced by index into the current entry list; out-of-range indexes and
// slots that are not strictly ascending are rejected.
func (q *Queue) RestoreTopRated(slots []uint32, entryIdx []int) error {
	if len(slots) != len(entryIdx) {
		return errors.New("corpus: top-rated slots and entries differ in length")
	}
	champs := make([]*Entry, len(slots))
	for i, slot := range slots {
		if i > 0 && slot <= slots[i-1] {
			return fmt.Errorf("corpus: top-rated slot %d follows slot %d (want strictly ascending)",
				slot, slots[i-1])
		}
		if entryIdx[i] < 0 || entryIdx[i] >= len(q.entries) {
			return fmt.Errorf("corpus: top-rated entry index %d out of range (%d entries)",
				entryIdx[i], len(q.entries))
		}
		champs[i] = q.entries[entryIdx[i]]
	}
	q.slots, q.champs = slices.Clone(slots), champs
	q.dirty = true
	return nil
}
