package core

import (
	"errors"
	"slices"
	"testing"
	"unsafe"

	"github.com/bigmap/bigmap/internal/rng"
)

func mustBig(t *testing.T, size int) *BigMap {
	t.Helper()
	m, err := NewBigMap(size)
	if err != nil {
		t.Fatalf("NewBigMap(%d): %v", size, err)
	}
	return m
}

// TestBigMapFillsWholeCacheLines pins the struct's padding (bigmap.go): at
// 128 bytes its size class is line-aligned, so the fields written on every
// exec share no cache line with another heap object.
func TestBigMapFillsWholeCacheLines(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the padding is sized for 64-bit platforms")
	}
	if got := unsafe.Sizeof(BigMap{}); got != 128 {
		t.Fatalf("BigMap is %d bytes, want 128: adjust its padding", got)
	}
}

func TestNewBigMapRejectsBadSizes(t *testing.T) {
	for _, size := range []int{0, -7, 6, 1000} {
		if _, err := NewBigMap(size); !errors.Is(err, ErrBadMapSize) {
			t.Errorf("NewBigMap(%d) err = %v, want ErrBadMapSize", size, err)
		}
	}
}

func TestBigMapAssignsDenseSlotsInDiscoveryOrder(t *testing.T) {
	m := mustBig(t, 1024)
	// Mirrors the paper's Figure 4(b): scattered keys condense in order.
	for _, key := range []uint32{1023, 7, 512, 7, 1023, 0} {
		m.Add(key)
	}
	if m.UsedKeys() != 4 {
		t.Fatalf("used_key = %d, want 4", m.UsedKeys())
	}
	wantSlots := map[uint32]int{1023: 0, 7: 1, 512: 2, 0: 3}
	for key, slot := range wantSlots {
		if got := m.SlotForKey(key); got != slot {
			t.Errorf("SlotForKey(%d) = %d, want %d", key, got, slot)
		}
		back, ok := m.KeyForSlot(slot)
		if !ok || back != key {
			t.Errorf("KeyForSlot(%d) = %d,%v, want %d,true", slot, back, ok, key)
		}
	}
	snap := m.Snapshot()
	want := []byte{2, 2, 1, 1}
	for i, b := range want {
		if snap[i] != b {
			t.Errorf("slot %d count = %d, want %d", i, snap[i], b)
		}
	}
}

func TestBigMapResetPreservesIndex(t *testing.T) {
	m := mustBig(t, 256)
	m.Add(100)
	m.Add(200)
	m.Reset()
	if m.CountNonZero() != 0 {
		t.Fatal("Reset did not clear used region")
	}
	if m.UsedKeys() != 2 {
		t.Fatalf("used_key = %d after reset, want 2", m.UsedKeys())
	}
	// Re-observing an edge must land in its original slot.
	m.Add(200)
	if got := m.SlotForKey(200); got != 1 {
		t.Errorf("slot for key 200 = %d after reset, want 1", got)
	}
}

// TestBigMapHashConsistency reproduces the P1/P2/P3 example from the paper's
// §IV-D: executing A→B→C, then A→B→C→D, then A→B→C again must give P1 and P3
// identical hashes even though used_key grew in between. This holds because
// the hash is computed up to the last non-zero slot, not up to used_key.
func TestBigMapHashConsistency(t *testing.T) {
	m := mustBig(t, 256)

	run := func(keys ...uint32) uint64 {
		m.Reset()
		for _, k := range keys {
			m.Add(k)
		}
		m.Classify()
		return m.Hash()
	}

	// Edge keys: AB=10, BC=20, CD=30.
	h1 := run(10, 20)
	h2 := run(10, 20, 30)
	h3 := run(10, 20)

	if h1 != h3 {
		t.Errorf("P1 hash %#x != P3 hash %#x: used_key growth leaked into the digest", h1, h3)
	}
	if h1 == h2 {
		t.Errorf("P1 and P2 hashed equal (%#x) despite different paths", h1)
	}
}

func TestBigMapHashOfEmptyTrace(t *testing.T) {
	m := mustBig(t, 64)
	h0 := m.Hash()
	m.Add(5)
	m.Reset()
	if got := m.Hash(); got != h0 {
		t.Errorf("empty-trace hash changed after reset: %#x != %#x", got, h0)
	}
}

func TestBigMapCompareUsesStableSlots(t *testing.T) {
	m := mustBig(t, 256)
	virgin := m.NewVirgin()

	m.Add(42)
	m.Classify()
	if v := m.CompareWith(virgin); v != VerdictNewEdges {
		t.Fatalf("first compare = %v, want new-edges", v)
	}

	// A second execution hitting the same edge via the same key must not be
	// "new" even though other edges were discovered in between.
	m.Reset()
	m.Add(7) // new edge, assigned a later slot
	m.Add(42)
	m.Classify()
	if v := m.CompareWith(virgin); v != VerdictNewEdges {
		t.Fatalf("second compare = %v, want new-edges (key 7)", v)
	}

	m.Reset()
	m.Add(42)
	m.Classify()
	if v := m.CompareWith(virgin); v != VerdictNone {
		t.Fatalf("third compare = %v, want none", v)
	}
	if got := virgin.CountDiscovered(); got != 2 {
		t.Errorf("discovered = %d, want 2", got)
	}
}

func TestBigMapMergedMatchesSplit(t *testing.T) {
	seqs := [][]uint32{
		{9, 9, 9, 4},
		{4, 9},
		{1, 2, 3, 4, 5, 6, 7, 8},
		{9},
	}
	split := mustBig(t, 64)
	merged := mustBig(t, 64)
	vs := split.NewVirgin()
	vm := merged.NewVirgin()
	for i, keys := range seqs {
		split.Reset()
		merged.Reset()
		for _, k := range keys {
			split.Add(k)
			merged.Add(k)
		}
		split.Classify()
		got1 := split.CompareWith(vs)
		got2 := merged.ClassifyAndCompare(vm)
		if got1 != got2 {
			t.Fatalf("step %d: split %v != merged %v", i, got1, got2)
		}
		if split.Hash() != merged.Hash() {
			t.Fatalf("step %d: traces diverged", i)
		}
	}
}

func TestBigMapSaturation(t *testing.T) {
	m := mustBig(t, 64)
	for i := 0; i < 1000; i++ {
		m.Add(1)
	}
	if got := m.Snapshot()[0]; got != 255 {
		t.Errorf("counter = %d, want 255", got)
	}
}

func TestBigMapKeyForSlotOutOfRange(t *testing.T) {
	m := mustBig(t, 64)
	m.Add(1)
	if _, ok := m.KeyForSlot(-1); ok {
		t.Error("KeyForSlot(-1) reported ok")
	}
	if _, ok := m.KeyForSlot(1); ok {
		t.Error("KeyForSlot(1) reported ok with used_key == 1")
	}
}

func TestBigMapAppendTouchedReturnsDenseSlots(t *testing.T) {
	m := mustBig(t, 1024)
	m.Add(900)
	m.Add(3)
	got := m.AppendTouched(nil)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("AppendTouched = %v, want [0 1]", got)
	}
}

// TestBigMapVirginGrowsWithUsedKeys drives a BigMap past its preallocated
// slot capacity next to a flat map. The virgin's stored prefix must grow,
// with undiscovered fill, to cover every touched slot: verdicts and
// discovered counts must match the flat scheme's full-size virgin, while the
// prefix stays far below the logical length. A sparse snapshot of the grown
// virgin must restore onto a fresh one, and Suppress past the prefix grows
// it too.
func TestBigMapVirginGrowsWithUsedKeys(t *testing.T) {
	const size = MapSize64K
	big := mustBig(t, size)
	afl, err := NewAFLMap(size)
	if err != nil {
		t.Fatal(err)
	}
	vb, va := big.NewVirgin(), afl.NewVirgin()
	src := rng.New(11)
	for exec := 0; exec < 12; exec++ {
		for i := 0; i < 1000; i++ {
			k := uint32(src.Intn(size))
			big.Add(k)
			afl.Add(k)
		}
		if gb, ga := big.ClassifyAndCompare(vb), afl.ClassifyAndCompare(va); gb != ga {
			t.Fatalf("exec %d: bigmap verdict %v, flat %v", exec, gb, ga)
		}
		if db, da := vb.CountDiscovered(), va.CountDiscovered(); db != da {
			t.Fatalf("exec %d: bigmap discovered %d, flat %d", exec, db, da)
		}
		big.Reset()
		afl.Reset()
	}
	if big.UsedKeys() <= 2*initialSlotCap {
		t.Fatalf("used_key %d never passed two doublings of the preallocation", big.UsedKeys())
	}
	if n := len(vb.bits); n < big.UsedKeys() || n >= vb.Len() {
		t.Fatalf("virgin stores %d slots for used_key %d and length %d", n, big.UsedKeys(), vb.Len())
	}

	fresh := big.NewVirgin()
	if err := fresh.SetWords(vb.Words()); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(fresh.Words(), vb.Words()) || fresh.CountDiscovered() != vb.CountDiscovered() {
		t.Fatal("sparse snapshot of a grown virgin did not restore")
	}

	v := big.NewVirgin()
	slot := uint32(3*initialSlotCap + 5)
	v.Suppress(slot)
	if len(v.bits) <= int(slot) || v.CountDiscovered() != 1 {
		t.Fatalf("Suppress(%d): %d slots stored, %d discovered", slot, len(v.bits), v.CountDiscovered())
	}
	if w := v.Words(); len(w) != 1 || w[0].Index != slot/8 {
		t.Fatalf("Suppress(%d): sparse form %+v", slot, w)
	}
}
