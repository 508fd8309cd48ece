package core

import (
	"errors"
	"fmt"
	"slices"

	"github.com/bigmap/bigmap/internal/telemetry"
)

// initialSlotCap is the dense-slot capacity preallocated at construction
// for the slot table, the coverage bitmap and each virgin map. Table II
// targets discover thousands of keys, so one up-front allocation covers a
// whole campaign's discovery bursts; maps smaller than this cap at their own
// size. Growth beyond the preallocation doubles (see growSlots).
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
// No operation does full-map work, construction included. The index stores
// slot+1 so that zero means "unassigned" and make's zeroed memory is a ready
// index; the operating system supplies those pages lazily, so an 8M map's
// 32 MB index costs resident memory only where keys land. Everything else —
// the coverage bitmap, the slot table and the virgin maps — is sized by
// used_key and grows by amortized doubling toward the slot capacity.
type BigMap struct {
	index    []uint32 // key -> dense slot + 1, 0 when unassigned
	coverage []byte   // dense hit counters, valid in [0..used); grows toward slotCap
	slotKey  []uint32 // dense slot -> key (diagnostic reverse mapping)
	slotCap  int      // dense slot capacity: the saturation point
	used     int
	hw       int    // highest slot touched since Reset, -1 when trace is clean
	dropped  uint64 // first-sight keys seen after the slot space filled

	// tel holds the optional per-operation telemetry histograms. The zero
	// value (all nil) is the disabled fast path: each timed operation pays
	// two nil checks and never reads the clock.
	tel telemetry.MapOps
}

var (
	_ Map          = (*BigMap)(nil)
	_ Saturable    = (*BigMap)(nil)
	_ Instrumented = (*BigMap)(nil)
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
	reserve := min(initialSlotCap, slotCap)
	return &BigMap{
		index:    make([]uint32, size),
		coverage: make([]byte, reserve),
		slotKey:  make([]uint32, 0, reserve),
		slotCap:  slotCap,
		hw:       -1,
	}, nil
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
	if k == 0 {
		if m.used == m.slotCap {
			// Slot space saturated: drop the key explicitly rather than
			// aliasing it onto an existing slot.
			m.dropped++
			return
		}
		m.growSlots()
		m.slotKey = append(m.slotKey, key) //bigmap:alloc-ok never reallocates: growSlots on the line above guarantees spare capacity
		m.used++
		k = uint32(m.used)
		m.index[key] = k
	}
	slot := int(k) - 1
	if slot > m.hw {
		m.hw = slot
	}
	b := m.coverage[slot]
	if b < 255 {
		m.coverage[slot] = b + 1
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
		if k == 0 {
			if m.used == m.slotCap {
				m.dropped++
				continue
			}
			m.growSlots()
			m.slotKey = append(m.slotKey, key) //bigmap:alloc-ok never reallocates: growSlots on the line above guarantees spare capacity
			m.used++
			k = uint32(m.used)
			m.index[key] = k
		}
		slot := int(k) - 1
		if slot > hw {
			hw = slot
		}
		b := m.coverage[slot]
		if b < 255 {
			m.coverage[slot] = b + 1
		}
	}
	m.hw = hw
	m.debugCheckCounters()
}

// growSlots makes room for one more slot: the coverage bitmap and the slot
// table each double when full (the bitmap capped at the slot capacity),
// keeping slot assignment allocation-free during discovery bursts: for n
// discoveries past the preallocation the map performs O(log n) allocations,
// and none at all while used_key stays within initialSlotCap (see the
// regression test). Called only below the slot capacity.
func (m *BigMap) growSlots() {
	if m.used == len(m.coverage) {
		grown := make([]byte, min(2*len(m.coverage), m.slotCap)) //bigmap:alloc-ok amortized doubling: O(log used_key) allocations per campaign, none within initialSlotCap
		copy(grown, m.coverage)
		m.coverage = grown
	}
	if len(m.slotKey) == cap(m.slotKey) {
		grown := make([]uint32, len(m.slotKey), 2*cap(m.slotKey)) //bigmap:alloc-ok amortized doubling: O(log used_key) allocations per campaign, none within initialSlotCap
		copy(grown, m.slotKey)
		m.slotKey = grown
	}
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

// virginTrace returns the touched region after growing virgin to cover
// it: one length check per exec, and a cold doubling while used_key climbs.
func (m *BigMap) virginTrace(virgin *Virgin) []byte {
	virgin.cover(m.hw + 1)
	m.debugCheckVirginCovers(virgin)
	return m.trace()
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
	verdict, newEdges := compareRegion(m.virginTrace(virgin), virgin.bits)
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
	verdict, newEdges := classifyCompareRegion(m.virginTrace(virgin), virgin.bits)
	virgin.discovered += newEdges
	m.tel.ClassifyCompare.Done(t0)
	return verdict
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
	h := hashRegion(m.coverage[:last+1])
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

// NewVirgin creates a virgin map with one logical slot per possible dense
// slot. Only a preallocated prefix is stored; the compare entry points grow
// it to cover the touched region, so its memory follows used_key.
func (m *BigMap) NewVirgin() *Virgin {
	return newVirgin(m.slotCap, initialSlotCap)
}

// DiffVirgin computes the raw-key delta in O(used_key) time and memory:
// the dense bytes are diffed against last (the dense bytes of the previous
// call; nil is all-0xFF), each changed slot is mapped to its raw key
// through the slot table, and every 8-key word holding one is composed from
// the current dense bytes through the index. The result equals
// DiffVirginBytes over the raw-key renderings of the two states.
func (m *BigMap) DiffVirgin(last []byte, virgin *Virgin) (VirginDelta, []byte) {
	cur := make([]byte, min(m.used, len(virgin.bits)))
	copy(cur, virgin.bits)
	var words []uint32
	for i := 0; i < len(cur); i += 8 {
		if wordAt(cur, i) == wordAt(last, i) {
			continue
		}
		for s := i; s < min(i+8, len(cur)); s++ {
			if cur[s] != byteAt(last, s) {
				words = append(words, m.slotKey[s]>>3)
			}
		}
	}
	slices.Sort(words)
	words = slices.Compact(words)
	d := VirginDelta{Size: len(m.index)}
	if len(words) > 0 {
		d.Words = make([]DeltaWord, len(words))
	}
	for i, w := range words {
		d.Words[i] = DeltaWord{Index: w, Word: m.keyWord(w, cur)}
	}
	return d, cur
}

// keyWord composes raw-key virgin word w (keys 8w..8w+7) from dense virgin
// bytes through the index. Unassigned keys, slots past dense and keys past
// the hash space read as 0xFF.
func (m *BigMap) keyWord(w uint32, dense []byte) uint64 {
	word := ^uint64(0)
	for j := 0; j < 8; j++ {
		key := int(w)*8 + j
		if key >= len(m.index) {
			break
		}
		if slot := int(m.index[key]) - 1; slot >= 0 && slot < len(dense) {
			word &^= uint64(^dense[slot]) << (8 * j)
		}
	}
	return word
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
	return int(m.index[key]) - 1
}

// Snapshot returns a copy of the used region of the coverage bitmap.
func (m *BigMap) Snapshot() []byte {
	out := make([]byte, m.used)
	copy(out, m.coverage[:m.used])
	return out
}

// SlotCap returns the dense slot capacity: how many distinct coverage keys
// the map can track before saturating.
func (m *BigMap) SlotCap() int { return m.slotCap }

// Saturated reports whether every dense slot has been assigned. A saturated
// map keeps working — established slots record coverage normally — but keys
// never seen before are dropped (and counted) instead of assigned.
func (m *BigMap) Saturated() bool { return m.used == m.slotCap }

// DroppedKeys counts the first-sight keys observed after saturation. Non-zero
// means coverage feedback is incomplete and the campaign should be re-run
// with a larger slot region.
func (m *BigMap) DroppedKeys() uint64 { return m.dropped }

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
	if len(slotKeys) > m.slotCap {
		return fmt.Errorf("core: checkpoint has %d slots, map capacity is %d",
			len(slotKeys), m.slotCap)
	}
	for slot, key := range slotKeys {
		if int(key) >= len(m.index) {
			return fmt.Errorf("core: checkpoint key %d out of range (map size %d)", key, len(m.index))
		}
		if m.index[key] != 0 {
			return fmt.Errorf("core: checkpoint assigns key %d twice", key)
		}
		m.index[key] = uint32(slot) + 1
	}
	if len(slotKeys) > len(m.coverage) {
		m.coverage = make([]byte, len(slotKeys))
	}
	m.slotKey = append(m.slotKey[:0], slotKeys...)
	m.used = len(slotKeys)
	m.dropped = dropped
	m.debugCheckCounters()
	m.debugCheckBijection()
	return nil
}
