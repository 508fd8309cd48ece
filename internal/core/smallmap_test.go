package core

import "testing"

// The word-at-a-time fast paths need a byte-tail fallback for maps smaller
// than 8 slots; these tests cover it.

func TestTinyMapsWork(t *testing.T) {
	for _, size := range []int{2, 4} {
		afl, err := NewAFLMap(size)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		big, err := NewBigMap(size)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		for _, m := range []Map{afl, big} {
			virgin := m.NewVirgin()
			m.Add(0)
			m.Add(uint32(size - 1))
			m.Classify()
			if v := m.CompareWith(virgin); v != VerdictNewEdges {
				t.Errorf("%s size %d: verdict %v", m.Scheme(), size, v)
			}
			if m.CountNonZero() != 2 {
				t.Errorf("%s size %d: nonzero %d", m.Scheme(), size, m.CountNonZero())
			}
			if got := len(m.AppendTouched(nil)); got != 2 {
				t.Errorf("%s size %d: touched %d", m.Scheme(), size, got)
			}
			m.Reset()
			if m.CountNonZero() != 0 {
				t.Errorf("%s size %d: reset failed", m.Scheme(), size)
			}
		}
	}
}

func TestNonMultipleOfEightTail(t *testing.T) {
	// Size 16 map with only the tail region touched exercises both the
	// word loop (zero words skipped) and the per-byte work.
	m, err := NewAFLMap(16)
	if err != nil {
		t.Fatal(err)
	}
	virgin := m.NewVirgin()
	m.Add(15)
	m.Add(8)
	if v := m.ClassifyAndCompare(virgin); v != VerdictNewEdges {
		t.Fatalf("verdict %v", v)
	}
	if virgin.CountDiscovered() != 2 {
		t.Errorf("discovered %d", virgin.CountDiscovered())
	}
	if virgin.Len() != 16 {
		t.Errorf("virgin len %d", virgin.Len())
	}
}

func TestHashBytesStability(t *testing.T) {
	// The maps' digest must be the documented FNV-1a 64.
	if hashRegion(nil) != 0xcbf29ce484222325 {
		t.Error("empty digest is not the FNV offset basis")
	}
	if hashRegion([]byte{0}) == hashRegion([]byte{1}) {
		t.Error("single-byte digests collide")
	}
}

func TestVerdictStrings(t *testing.T) {
	if VerdictNone.String() != "none" ||
		VerdictNewCounts.String() != "new-counts" ||
		VerdictNewEdges.String() != "new-edges" {
		t.Error("verdict labels wrong")
	}
	if Verdict(42).String() == "" {
		t.Error("unknown verdict has empty label")
	}
}

func TestBigMapSnapshotIsCopy(t *testing.T) {
	m, err := NewBigMap(64)
	if err != nil {
		t.Fatal(err)
	}
	m.Add(5)
	snap := m.Snapshot()
	snap[0] = 99
	if m.Snapshot()[0] == 99 {
		t.Error("Snapshot exposed internal storage")
	}
}

func TestAFLMapSnapshotIsCopy(t *testing.T) {
	m, err := NewAFLMap(64)
	if err != nil {
		t.Fatal(err)
	}
	m.Add(5)
	snap := m.Snapshot()
	snap[5] = 99
	if m.Snapshot()[5] == 99 {
		t.Error("Snapshot exposed internal storage")
	}
}
