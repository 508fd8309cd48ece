package core

import (
	"errors"
	"fmt"
)

// Common coverage map sizes from the paper's evaluation. Sizes must be powers
// of two so coverage keys can be masked into range, matching AFL.
const (
	MapSize64K  = 1 << 16
	MapSize256K = 1 << 18
	MapSize2M   = 1 << 21
	MapSize8M   = 1 << 23
)

// ErrBadMapSize is returned when a requested map size is not a positive power
// of two.
var ErrBadMapSize = errors.New("core: map size must be a positive power of two")

// Verdict is the result of comparing a classified trace against a virgin map,
// with AFL's has_new_bits semantics. The zero value means "nothing new".
type Verdict int

const (
	// VerdictNone means the trace revealed no new coverage.
	VerdictNone Verdict = 0
	// VerdictNewCounts means a previously seen edge hit a new count bucket.
	VerdictNewCounts Verdict = 1
	// VerdictNewEdges means at least one never-before-seen edge was hit.
	VerdictNewEdges Verdict = 2
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case VerdictNone:
		return "none"
	case VerdictNewCounts:
		return "new-counts"
	case VerdictNewEdges:
		return "new-edges"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Map records per-testcase coverage statistics keyed by a coverage metric and
// exposes the per-testcase operations the paper analyses: reset, update
// (Add), classify, compare, and hash. Implementations are not safe for
// concurrent use; each fuzzing instance owns its maps.
type Map interface {
	// Size returns the hash space H: the number of distinct coverage keys
	// the map accepts. Keys passed to Add must be < Size.
	Size() int

	// Add increments the hit count associated with key, saturating at 255.
	// This is the instrumentation-side "bitmap update" operation.
	Add(key uint32)

	// AddBatch applies Add to every key in order. Semantically it is
	// exactly a loop of Adds (same saturation, same first-sight slot
	// assignment order for the two-level scheme); it exists so a batched
	// tracer can flush a whole buffered trace through one interface call
	// instead of paying a virtual Add per edge event.
	AddBatch(keys []uint32)

	// Reset clears all hit counts recorded since the previous Reset. The
	// flat scheme must wipe the whole bitmap; the two-level scheme only
	// wipes the used region.
	Reset()

	// Classify converts exact hit counts into AFL bucket bits in place.
	Classify()

	// CompareWith compares the (already classified) trace against virgin,
	// clears the discovered bits out of virgin, and reports whether the
	// trace contained new edges or new count buckets. virgin must have
	// been created by NewVirgin on a map of identical scheme and size.
	CompareWith(virgin *Virgin) Verdict

	// ClassifyAndCompare performs Classify and CompareWith in a single
	// traversal, the merged optimization from the paper's §IV-E.
	ClassifyAndCompare(virgin *Virgin) Verdict

	// Hash returns a hash of the classified trace, used to deduplicate
	// execution paths. For the two-level scheme the hash covers the slots
	// up to the last non-zero value so that it is invariant under
	// used_key growth (§IV-D).
	Hash() uint64

	// CountNonZero returns the number of keys with a non-zero hit count in
	// the current trace (AFL's count_bytes over trace_bits).
	CountNonZero() int

	// AppendTouched appends the identities of all slots with non-zero hit
	// counts to dst and returns the extended slice. Identities are stable
	// for the lifetime of the map (raw keys for the flat scheme, dense
	// slot indices for the two-level scheme) and are used by the queue
	// culling logic to track which entry "owns" each piece of coverage.
	AppendTouched(dst []uint32) []uint32

	// NewVirgin allocates a global-coverage companion map compatible with
	// this map's scheme and size.
	NewVirgin() *Virgin

	// DiffVirgin returns the delta, indexed by raw coverage key over Size()
	// keys, that carries virgin's state relative to last, together with
	// virgin's current bytes in this map's own layout to pass as last on
	// the next call. A nil last is the all-0xFF baseline. The delta equals
	// DiffVirginBytes over the raw-key renderings of the two states, so
	// instances whose dense slots differ publish comparable deltas.
	DiffVirgin(last []byte, virgin *Virgin) (VirginDelta, []byte)

	// UsedKeys reports how many distinct slots the map has ever assigned:
	// Size() for the flat scheme, used_key for the two-level scheme.
	UsedKeys() int

	// Scheme names the implementation ("afl" or "bigmap") for reporting.
	Scheme() string
}

// Saturable is the optional interface of maps whose dense slot space can
// fill up (BigMap with a bounded slot region). Saturation is an explicit,
// observable state: keys seen after the last slot is assigned are counted and
// dropped, never silently aliased onto existing slots.
type Saturable interface {
	// Saturated reports whether every dense slot has been assigned.
	Saturated() bool
	// DroppedKeys counts first-sight keys that could not be assigned a slot.
	DroppedKeys() uint64
}

// Virgin is the global coverage state a trace is compared against. AFL keeps
// three of these per fuzzer: overall coverage, crash coverage and hang
// coverage. Bytes start at 0xFF (every bucket bit still undiscovered) and
// discovered bucket bits are cleared by Map.CompareWith, which also keeps the
// discovered-slot count current so stats polling never re-walks the map.
//
// A virgin has a logical length (Len: one byte per slot the map can assign)
// and a physical prefix of it that is actually stored. Slots past the
// physical prefix are 0xFF. The flat scheme stores the whole map; the
// two-level scheme stores a prefix that grows with used_key (see cover), so
// its memory follows the coverage found rather than the map size.
type Virgin struct {
	bits       []byte // physical prefix; slots at and past len(bits) are 0xFF
	n          int    // logical length in slots
	discovered int
}

// newVirgin creates an all-0xFF virgin of n slots with the first reserve
// of them stored.
func newVirgin(n, reserve int) *Virgin {
	v := &Virgin{bits: make([]byte, min(reserve, n)), n: n}
	FillVirgin(v.bits)
	return v
}

// FillVirgin sets every byte of p to 0xFF, the undiscovered state, by copy
// doubling: one store, then memmoves of 1, 2, 4, ... bytes. It is several
// times faster than a byte loop on multi-megabyte maps.
func FillVirgin(p []byte) {
	if len(p) == 0 {
		return
	}
	p[0] = 0xFF
	for n := 1; n < len(p); n *= 2 {
		copy(p[n:], p[:n])
	}
}

// cover makes the physical prefix span at least the first n slots (n must
// not exceed Len). The check is the only per-exec cost of a growable
// virgin; growth itself runs O(log used_key) times per campaign.
func (v *Virgin) cover(n int) {
	if n > len(v.bits) {
		v.grow(n)
	}
}

// grow extends the physical prefix to at least n slots, doubling to keep
// growth amortized and capping at the logical length.
func (v *Virgin) grow(n int) {
	grown := make([]byte, min(max(n, 2*len(v.bits)), v.n)) //bigmap:alloc-ok amortized doubling: O(log used_key) allocations per campaign
	copy(grown, v.bits)
	FillVirgin(grown[len(v.bits):])
	v.bits = grown
}

// CountDiscovered returns the number of slots with at least one discovered
// bucket bit — the fuzzer's "edges covered so far" statistic. The count is
// maintained incrementally on the has_new_bits path, so this is O(1) and
// safe to poll every stats or checkpoint tick.
func (v *Virgin) CountDiscovered() int { return v.discovered }

// Len returns the virgin map's logical capacity in slots.
func (v *Virgin) Len() int { return v.n }

// Suppress marks a slot as fully discovered (all bucket bits cleared), so it
// can never again contribute to a has_new_bits verdict. The calibration stage
// uses this to exclude unstable edges from coverage feedback: an edge that
// appears only on some executions of the same input would otherwise keep
// producing spurious "new coverage" and flood the queue.
func (v *Virgin) Suppress(slot uint32) {
	if int(slot) >= v.n {
		return
	}
	v.cover(int(slot) + 1)
	if v.bits[slot] == 0xFF {
		v.discovered++
	}
	v.bits[slot] = 0
}

// Words returns the virgin state in sparse form: every 8-byte word holding
// a discovered (non-0xFF) byte, ascending by index, in the DeltaWord layout;
// all other bytes are 0xFF. The form depends only on the logical state, not
// on how far the physical prefix has grown, so it is what checkpoints store
// and its size follows the coverage found.
func (v *Virgin) Words() []DeltaWord {
	return DiffVirginBytes(nil, v.bits).Words
}

// SetWords replaces the virgin state with a sparse snapshot taken by Words.
// Word indexes must ascend strictly and lie within Len; bytes of the last
// word past Len are ignored.
func (v *Virgin) SetWords(words []DeltaWord) error {
	prev := -1
	for _, w := range words {
		if int(w.Index) <= prev || int(w.Index) >= (v.n+7)/8 {
			return fmt.Errorf("core: virgin word %d out of order or beyond %d slots", w.Index, v.n)
		}
		prev = int(w.Index)
	}
	FillVirgin(v.bits)
	v.cover(min(8*(prev+1), v.n))
	v.discovered = 0
	for _, w := range words {
		for j, base := 0, 8*int(w.Index); j < 8 && base+j < v.n; j++ {
			b := byte(w.Word >> (8 * j))
			v.bits[base+j] = b
			if b != 0xFF {
				v.discovered++
			}
		}
	}
	return nil
}

// CheckMapSize reports whether size is a valid coverage key space: a
// positive power of two. It returns ErrBadMapSize otherwise.
func CheckMapSize(size int) error {
	if !validSize(size) {
		return ErrBadMapSize
	}
	return nil
}

func validSize(size int) bool {
	return size > 0 && size&(size-1) == 0
}
