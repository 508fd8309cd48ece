package core

import (
	"errors"
	"fmt"

	"github.com/bigmap/bigmap/internal/telemetry"
)

// initialSlotCap is the dense-slot capacity preallocated at construction.
// Table II targets discover thousands of keys, so one up-front allocation
// covers a whole campaign's discovery bursts; maps smaller than this cap at
// their own size. Growth beyond the preallocation doubles (see growSlotKey).
const initialSlotCap = 4096

// BigMap is the paper's adaptive two-level coverage bitmap (§IV). An index
// bitmap maps each coverage key to a densely packed slot in the coverage
// bitmap; slots are assigned on first sight from the used_key counter. All
// per-testcase operations except the update itself traverse only the used
// region [0..used_key), so their cost depends on how many distinct coverage
// keys the target has produced rather than on the map's size — the map can be
// made arbitrarily large to suppress hash collisions at negligible cost.
//
// Two refinements tighten that bound further. The traversals use the shared
// word-level kernels (kernels.go), so the per-slot constant matches AFL's
// u64* loops. And Add maintains a high-water mark: the highest dense slot
// touched since the last Reset. Slots above it are guaranteed zero, so
// classify, compare, hash, count and reset all clip at the mark — their cost
// follows the current trace's footprint, which is never larger than (and
// after the discovery phase typically equal to) the used region.
//
// The only full-map work is the one-time initialization of the index bitmap
// to "unassigned" when the map is created.
type BigMap struct {
	index    []int32  // key -> dense slot, -1 when unassigned
	coverage []byte   // dense hit counters, valid in [0..used)
	slotKey  []uint32 // dense slot -> key (diagnostic reverse mapping)
	used     int
	hw       int    // highest slot touched since Reset, -1 when trace is clean
	dropped  uint64 // first-sight keys seen after the slot space filled

	// tel holds the optional per-operation telemetry histograms. The zero
	// value (all nil) is the disabled fast path: each timed operation pays
	// two nil checks and never reads the clock.
	tel telemetry.MapOps
}

var (
	_ Map            = (*BigMap)(nil)
	_ Saturable      = (*BigMap)(nil)
	_ Instrumented   = (*BigMap)(nil)
	_ CoverageMerger = (*BigMap)(nil)
)

// NewBigMap creates a two-level coverage map with the given hash-space size,
// which must be a positive power of two (e.g. MapSize8M). The dense slot
// region spans the full hash space, so the map can never saturate.
func NewBigMap(size int) (*BigMap, error) {
	return NewBigMapSlots(size, size)
}

// NewBigMapSlots creates a two-level map with a bounded dense slot region:
// at most slotCap distinct coverage keys can be assigned slots (slotCap == 0
// or >= size means unbounded). This is the configuration the paper's design
// actually targets — a huge hash space backed by a small dense bitmap — and
// it introduces a saturation state: once used_key reaches slotCap, further
// first-sight keys are counted in DroppedKeys and produce no coverage,
// rather than silently corrupting existing slots. slotCap need not be a
// power of two.
func NewBigMapSlots(size, slotCap int) (*BigMap, error) {
	if !validSize(size) {
		return nil, ErrBadMapSize
	}
	if slotCap <= 0 || slotCap > size {
		slotCap = size
	}
	reserve := initialSlotCap
	if slotCap < reserve {
		reserve = slotCap
	}
	m := &BigMap{
		index:    make([]int32, size),
		coverage: make([]byte, slotCap),
		slotKey:  make([]uint32, 0, reserve),
		hw:       -1,
	}
	for i := range m.index {
		m.index[i] = -1
	}
	return m, nil
}

// Instrument installs telemetry histograms for the per-testcase operations.
// Timings are observability output only; they never influence fuzzing
// decisions, so an instrumented campaign replays identically to a bare one.
func (m *BigMap) Instrument(ops telemetry.MapOps) { m.tel = ops }

// Size returns the hash space size.
func (m *BigMap) Size() int { return len(m.index) }

// Scheme returns "bigmap".
func (m *BigMap) Scheme() string { return "bigmap" }

// UsedKeys returns used_key: how many distinct coverage keys have been
// observed since the map was created.
func (m *BigMap) UsedKeys() int { return m.used }

// trace returns the region the per-testcase operations must traverse: every
// slot touched since the last Reset lies below the high-water mark, and all
// slots above it are zero.
func (m *BigMap) trace() []byte {
	return m.coverage[:m.hw+1]
}

// Add performs the two-level update from the paper's Listing 2: look the key
// up in the index bitmap, assigning the next free dense slot on first sight,
// then increment the dense hit counter (saturating at 255).
//
//bigmap:hotpath per-visit map update
func (m *BigMap) Add(key uint32) {
	k := m.index[key]
	if k < 0 {
		if m.used == len(m.coverage) {
			// Slot space saturated: drop the key explicitly rather than
			// aliasing it onto an existing slot.
			m.dropped++
			return
		}
		k = int32(m.used)
		m.index[key] = k
		m.growSlotKey()
		m.slotKey = append(m.slotKey, key) //bigmap:alloc-ok never reallocates: growSlotKey on the line above guarantees spare capacity
		m.used++
	}
	if int(k) > m.hw {
		m.hw = int(k)
	}
	b := m.coverage[k]
	if b < 255 {
		m.coverage[k] = b + 1
	}
	m.debugCheckCounters()
}

// AddBatch records a whole buffered trace in one call — the flush half of
// the batched tracing pipeline. The semantics are exactly len(keys)
// applications of Listing 2's update: hit counts saturate identically and
// slots are assigned in first-sight order within the batch, so the dense
// layout is the same one per-edge Adds would have produced. One interface
// call per execution replaces one virtual Add per edge event, and the
// high-water mark is folded through a register instead of memory.
//
//bigmap:hotpath per-flush batched map update
func (m *BigMap) AddBatch(keys []uint32) {
	hw := m.hw
	for _, key := range keys {
		k := m.index[key]
		if k < 0 {
			if m.used == len(m.coverage) {
				m.dropped++
				continue
			}
			k = int32(m.used)
			m.index[key] = k
			m.growSlotKey()
			m.slotKey = append(m.slotKey, key) //bigmap:alloc-ok never reallocates: growSlotKey on the line above guarantees spare capacity
			m.used++
		}
		if int(k) > hw {
			hw = int(k)
		}
		b := m.coverage[k]
		if b < 255 {
			m.coverage[k] = b + 1
		}
	}
	m.hw = hw
	m.debugCheckCounters()
}

// growSlotKey doubles slotKey's capacity when it is full, keeping slot
// assignment allocation-free during discovery bursts: for n discoveries past
// the preallocation the map performs O(log n) allocations, and none at all
// while used_key stays within initialSlotCap (see the regression test).
func (m *BigMap) growSlotKey() {
	if len(m.slotKey) < cap(m.slotKey) {
		return
	}
	grown := make([]uint32, len(m.slotKey), 2*cap(m.slotKey)) //bigmap:alloc-ok amortized doubling: O(log used_key) allocations per campaign, none within initialSlotCap
	copy(grown, m.slotKey)
	m.slotKey = grown
}

// Reset wipes the touched region of the coverage bitmap — everything past
// the high-water mark is already zero. The index bitmap is deliberately
// untouched: slot assignments persist for the whole campaign so the same
// edge always lands in the same slot.
//
//bigmap:hotpath per-exec map clear
func (m *BigMap) Reset() {
	t0 := m.tel.Reset.Start()
	m.debugCheckTraceClean()
	clear(m.trace())
	m.hw = -1
	m.tel.Reset.Done(t0)
}

// Classify converts exact hit counts to bucket bits in place over the
// touched region only.
//
//bigmap:hotpath per-exec bucket classification
func (m *BigMap) Classify() {
	t0 := m.tel.Classify.Start()
	classifyRegion(m.trace())
	m.tel.Classify.Done(t0)
}

// CompareWith implements has_new_bits over the touched region. The virgin
// map shares the dense slot space (slot assignments are stable and
// monotonic), so comparing the region the current trace touched observes
// exactly the keys this execution hit; untouched slots are zero and can
// never contribute a verdict.
//
//bigmap:hotpath per-exec virgin comparison
func (m *BigMap) CompareWith(virgin *Virgin) Verdict {
	t0 := m.tel.Compare.Start()
	verdict, newEdges := compareRegion(m.trace(), virgin.bits)
	virgin.discovered += newEdges
	m.tel.Compare.Done(t0)
	return verdict
}

// ClassifyAndCompare performs the merged classify+compare traversal (§IV-E)
// over the touched region.
//
//bigmap:hotpath per-exec merged classify+compare
func (m *BigMap) ClassifyAndCompare(virgin *Virgin) Verdict {
	t0 := m.tel.ClassifyCompare.Start()
	verdict, newEdges := classifyCompareRegion(m.trace(), virgin.bits)
	virgin.discovered += newEdges
	m.tel.ClassifyCompare.Done(t0)
	return verdict
}

// MaybeNew is the read-only selective-tracing prefilter over the touched
// region: true iff ClassifyAndCompare(virgin) would return a non-VerdictNone
// verdict. Neither the trace nor the virgin map is modified, so a false
// result lets the caller skip the classify-store and virgin-update work of
// the full traversal for this execution.
//
//bigmap:hotpath per-exec selective-trace prefilter
func (m *BigMap) MaybeNew(virgin *Virgin) bool {
	t0 := m.tel.MaybeNew.Start()
	hit := maybeNewRegion(m.trace(), virgin.bits)
	m.tel.MaybeNew.Done(t0)
	return hit
}

// Hash digests the coverage bitmap up to the last non-zero slot (§IV-D).
// Hashing a fixed [0..used) prefix would make the digest of a path depend on
// how many edges other test cases had discovered by the time it ran; clipping
// at the last non-zero value keeps the digest a function of the path alone.
// The high-water mark already bounds the scan — the backward word-level
// search only walks the (usually empty) zero gap below it.
//
//bigmap:hotpath per-discovery trace digest
func (m *BigMap) Hash() uint64 {
	t0 := m.tel.Hash.Start()
	last := lastNonZero(m.trace())
	h := hashBytes(m.coverage[:last+1])
	m.tel.Hash.Done(t0)
	return h
}

// CountNonZero counts dense slots with non-zero hit counts.
func (m *BigMap) CountNonZero() int {
	return countNonZeroRegion(m.trace())
}

// AppendTouched appends the dense slot indices with non-zero hit counts.
// Slot identity is stable across executions because the index mapping never
// changes once assigned.
func (m *BigMap) AppendTouched(dst []uint32) []uint32 {
	return appendTouchedRegion(dst, m.trace())
}

// NewVirgin allocates a virgin map with one slot per possible dense slot.
func (m *BigMap) NewVirgin() *Virgin {
	return newVirgin(len(m.coverage))
}

// KeyForSlot returns the coverage key that was assigned the given dense slot.
// It is a diagnostic aid for tests and triage tooling; the fuzzing hot path
// never needs it.
func (m *BigMap) KeyForSlot(slot int) (uint32, bool) {
	if slot < 0 || slot >= m.used {
		return 0, false
	}
	return m.slotKey[slot], true
}

// SlotForKey returns the dense slot assigned to key, or -1 if the key has
// never been observed.
func (m *BigMap) SlotForKey(key uint32) int {
	return int(m.index[key])
}

// Snapshot returns a copy of the used region of the coverage bitmap.
func (m *BigMap) Snapshot() []byte {
	out := make([]byte, m.used)
	copy(out, m.coverage[:m.used])
	return out
}

// SlotCap returns the dense slot capacity: how many distinct coverage keys
// the map can track before saturating.
func (m *BigMap) SlotCap() int { return len(m.coverage) }

// Saturated reports whether every dense slot has been assigned. A saturated
// map keeps working — established slots record coverage normally — but keys
// never seen before are dropped (and counted) instead of assigned.
func (m *BigMap) Saturated() bool { return m.used == len(m.coverage) }

// DroppedKeys counts the first-sight keys observed after saturation. Non-zero
// means coverage feedback is incomplete and the campaign should be re-run
// with a larger slot region.
func (m *BigMap) DroppedKeys() uint64 { return m.dropped }

// MergeVirginInto folds an instance virgin map into a campaign-level union,
// translating each dense slot to its raw coverage key through the live
// slot-to-key table (no copy; the union reads it during the call only).
func (m *BigMap) MergeVirginInto(u *LockedVirginUnion, v *Virgin) {
	u.MergeVirgin(v, m.slotKey[:m.used])
}

// SlotKeys returns a copy of the dense-slot-to-key assignment table, in slot
// order. Together with the drop counter this is the map's entire persistent
// state (hit counters are per-execution), which is what a checkpoint stores.
func (m *BigMap) SlotKeys() []uint32 {
	out := make([]uint32, m.used)
	copy(out, m.slotKey[:m.used])
	return out
}

// RestoreAssignments rebuilds the index from a checkpointed SlotKeys table
// (plus the saturation drop counter), so every previously seen edge lands in
// the same dense slot it had before the checkpoint — the property that keeps
// corpus Touched lists, virgin maps and path hashes valid across a resume.
// The map must be freshly created with identical geometry.
func (m *BigMap) RestoreAssignments(slotKeys []uint32, dropped uint64) error {
	if m.used != 0 {
		return errors.New("core: RestoreAssignments on a used map")
	}
	if len(slotKeys) > len(m.coverage) {
		return fmt.Errorf("core: checkpoint has %d slots, map capacity is %d",
			len(slotKeys), len(m.coverage))
	}
	for slot, key := range slotKeys {
		if int(key) >= len(m.index) {
			return fmt.Errorf("core: checkpoint key %d out of range (map size %d)", key, len(m.index))
		}
		if m.index[key] >= 0 {
			return fmt.Errorf("core: checkpoint assigns key %d twice", key)
		}
		m.index[key] = int32(slot)
	}
	m.slotKey = append(m.slotKey[:0], slotKeys...)
	m.used = len(slotKeys)
	m.dropped = dropped
	m.debugCheckCounters()
	m.debugCheckBijection()
	return nil
}
