package core

import "github.com/bigmap/bigmap/internal/telemetry"

// AFLMap is the single-level coverage bitmap used by vanilla AFL: one byte of
// hit-count storage per coverage key. Updates are O(1) but every other map
// operation (reset, classify, compare, hash) must traverse the entire bitmap,
// which is what makes large maps expensive (paper §III-A). The traversals use
// the shared block-skipping kernels (kernels.go), which reject 32 untouched
// slots with one OR-and-test, so a sparse trace costs about one read of the
// map per operation — the cost that remains is the full-map iteration
// itself, which is the paper's point.
type AFLMap struct {
	bits []byte

	// tel holds the optional per-operation telemetry histograms; the zero
	// value is the disabled fast path (nil checks, no clock reads).
	tel telemetry.MapOps
}

var (
	_ Map          = (*AFLMap)(nil)
	_ Instrumented = (*AFLMap)(nil)
)

// Instrument installs telemetry histograms for the per-testcase operations.
func (m *AFLMap) Instrument(ops telemetry.MapOps) { m.tel = ops }

// NewAFLMap creates a flat coverage map with the given hash-space size, which
// must be a positive power of two (e.g. MapSize64K).
func NewAFLMap(size int) (*AFLMap, error) {
	if !validSize(size) {
		return nil, ErrBadMapSize
	}
	return &AFLMap{bits: make([]byte, size)}, nil
}

// Size returns the hash space size.
func (m *AFLMap) Size() int { return len(m.bits) }

// Scheme returns "afl".
func (m *AFLMap) Scheme() string { return "afl" }

// UsedKeys returns Size(): the flat scheme has no notion of a used region,
// every operation touches all slots.
func (m *AFLMap) UsedKeys() int { return len(m.bits) }

// Add increments the hit count for key, saturating at 255 so that a wrapped
// counter cannot masquerade as "edge not hit".
//
//bigmap:hotpath per-visit map update
func (m *AFLMap) Add(key uint32) {
	b := m.bits[key]
	if b < 255 {
		m.bits[key] = b + 1
	}
}

// AddBatch records a whole buffered trace in one call — the flush half of the
// batched tracing pipeline. One interface call per execution replaces one
// virtual Add per edge event; the loop body is the same saturating increment.
//
//bigmap:hotpath per-flush batched map update
func (m *AFLMap) AddBatch(keys []uint32) {
	bits := m.bits
	for _, key := range keys {
		b := bits[key]
		if b < 255 {
			bits[key] = b + 1
		}
	}
}

// Reset wipes the whole bitmap. This is the memset AFL performs before every
// test case.
//
//bigmap:hotpath per-exec map clear
func (m *AFLMap) Reset() {
	t0 := m.tel.Reset.Start()
	clear(m.bits)
	m.tel.Reset.Done(t0)
}

// Classify converts exact hit counts to bucket bits in place, traversing the
// full map. Like AFL++'s classify_counts, it skips zero words and classifies
// non-zero words with halfword lookups.
//
//bigmap:hotpath per-exec bucket classification
func (m *AFLMap) Classify() {
	t0 := m.tel.Classify.Start()
	classifyRegion(m.bits)
	m.tel.Classify.Done(t0)
}

// CompareWith implements AFL's has_new_bits over the full map: any trace byte
// that still has bits set in the virgin map is new coverage; hitting a fully
// virgin byte (0xFF) means a brand-new edge rather than just a new bucket.
//
//bigmap:hotpath per-exec virgin comparison
func (m *AFLMap) CompareWith(virgin *Virgin) Verdict {
	t0 := m.tel.Compare.Start()
	verdict, newEdges := compareRegion(m.bits, virgin.bits)
	virgin.discovered += newEdges
	m.tel.Compare.Done(t0)
	return verdict
}

// ClassifyAndCompare performs the merged classify+compare traversal (§IV-E):
// one pass over the full map instead of two.
//
//bigmap:hotpath per-exec merged classify+compare
func (m *AFLMap) ClassifyAndCompare(virgin *Virgin) Verdict {
	t0 := m.tel.ClassifyCompare.Start()
	verdict, newEdges := classifyCompareRegion(m.bits, virgin.bits)
	virgin.discovered += newEdges
	m.tel.ClassifyCompare.Done(t0)
	return verdict
}

// Hash digests the full bitmap.
//
//bigmap:hotpath per-discovery trace digest
func (m *AFLMap) Hash() uint64 {
	t0 := m.tel.Hash.Start()
	h := hashRegion(m.bits)
	m.tel.Hash.Done(t0)
	return h
}

// CountNonZero counts keys with non-zero hit counts (AFL's count_bytes),
// skipping zero words.
func (m *AFLMap) CountNonZero() int {
	return countNonZeroRegion(m.bits)
}

// AppendTouched appends the raw keys with non-zero hit counts.
func (m *AFLMap) AppendTouched(dst []uint32) []uint32 {
	return appendTouchedRegion(dst, m.bits)
}

// NewVirgin allocates a full-size virgin map.
func (m *AFLMap) NewVirgin() *Virgin {
	return newVirgin(len(m.bits), len(m.bits))
}

// DiffVirgin diffs the full-size virgin against last directly: the flat
// scheme's virgin is already indexed by raw key.
func (m *AFLMap) DiffVirgin(last []byte, virgin *Virgin) (VirginDelta, []byte) {
	cur := append([]byte(nil), virgin.bits...)
	return DiffVirginBytes(last, cur), cur
}

// Snapshot returns a copy of the raw bitmap, for tests and debugging.
func (m *AFLMap) Snapshot() []byte {
	out := make([]byte, len(m.bits))
	copy(out, m.bits)
	return out
}
