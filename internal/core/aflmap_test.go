package core

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestNewAFLMapRejectsBadSizes(t *testing.T) {
	for _, size := range []int{0, -1, 3, 100, 1<<16 + 1} {
		if _, err := NewAFLMap(size); !errors.Is(err, ErrBadMapSize) {
			t.Errorf("NewAFLMap(%d) err = %v, want ErrBadMapSize", size, err)
		}
	}
}

func mustAFL(t *testing.T, size int) *AFLMap {
	t.Helper()
	m, err := NewAFLMap(size)
	if err != nil {
		t.Fatalf("NewAFLMap(%d): %v", size, err)
	}
	return m
}

func TestAFLMapAddAndSaturation(t *testing.T) {
	m := mustAFL(t, 64)
	for i := 0; i < 300; i++ {
		m.Add(5)
	}
	if got := m.Snapshot()[5]; got != 255 {
		t.Errorf("counter = %d, want saturation at 255", got)
	}
	if got := m.CountNonZero(); got != 1 {
		t.Errorf("CountNonZero = %d, want 1", got)
	}
}

func TestAFLMapResetClearsEverything(t *testing.T) {
	m := mustAFL(t, 64)
	m.Add(1)
	m.Add(63)
	m.Reset()
	if got := m.CountNonZero(); got != 0 {
		t.Errorf("CountNonZero after Reset = %d, want 0", got)
	}
}

func TestAFLMapClassify(t *testing.T) {
	m := mustAFL(t, 64)
	for i := 0; i < 5; i++ {
		m.Add(7)
	}
	m.Add(9)
	m.Classify()
	snap := m.Snapshot()
	if snap[7] != 8 {
		t.Errorf("slot 7 = %#x, want bucket 8 (count 5)", snap[7])
	}
	if snap[9] != 1 {
		t.Errorf("slot 9 = %#x, want bucket 1 (count 1)", snap[9])
	}
}

func TestAFLMapCompareVerdicts(t *testing.T) {
	m := mustAFL(t, 64)
	virgin := m.NewVirgin()

	// First sighting of an edge: new edges.
	m.Add(3)
	m.Classify()
	if v := m.CompareWith(virgin); v != VerdictNewEdges {
		t.Fatalf("first compare = %v, want new-edges", v)
	}

	// Same edge, same bucket: nothing new.
	m.Reset()
	m.Add(3)
	m.Classify()
	if v := m.CompareWith(virgin); v != VerdictNone {
		t.Fatalf("repeat compare = %v, want none", v)
	}

	// Same edge, higher bucket: new counts.
	m.Reset()
	for i := 0; i < 4; i++ {
		m.Add(3)
	}
	m.Classify()
	if v := m.CompareWith(virgin); v != VerdictNewCounts {
		t.Fatalf("bucket-change compare = %v, want new-counts", v)
	}

	// New edge while old edge also present: new edges wins.
	m.Reset()
	m.Add(3)
	m.Add(10)
	m.Classify()
	if v := m.CompareWith(virgin); v != VerdictNewEdges {
		t.Fatalf("mixed compare = %v, want new-edges", v)
	}

	if got := virgin.CountDiscovered(); got != 2 {
		t.Errorf("discovered = %d, want 2", got)
	}
}

func TestAFLMapMergedMatchesSplit(t *testing.T) {
	seq := [][]uint32{
		{1, 1, 1, 2},
		{1, 2, 3},
		{3, 3, 3, 3, 3, 3, 3, 3, 3},
		{1},
	}
	split := mustAFL(t, 64)
	merged := mustAFL(t, 64)
	vs := split.NewVirgin()
	vm := merged.NewVirgin()
	for i, keys := range seq {
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
			t.Fatalf("step %d: split verdict %v != merged verdict %v", i, got1, got2)
		}
		if split.Hash() != merged.Hash() {
			t.Fatalf("step %d: classified traces diverged", i)
		}
	}
}

func TestAFLMapHashDistinguishesPaths(t *testing.T) {
	m := mustAFL(t, 64)
	m.Add(1)
	m.Classify()
	h1 := m.Hash()

	m.Reset()
	m.Add(2)
	m.Classify()
	h2 := m.Hash()

	if h1 == h2 {
		t.Error("different single-edge paths hashed equal")
	}

	m.Reset()
	m.Add(1)
	m.Classify()
	if got := m.Hash(); got != h1 {
		t.Error("identical path did not reproduce hash")
	}
}

func TestAFLMapAppendTouched(t *testing.T) {
	m := mustAFL(t, 64)
	m.Add(5)
	m.Add(60)
	m.Add(5)
	got := m.AppendTouched(nil)
	if len(got) != 2 || got[0] != 5 || got[1] != 60 {
		t.Errorf("AppendTouched = %v, want [5 60]", got)
	}
}

func TestAFLMapUsedKeysIsFullSize(t *testing.T) {
	m := mustAFL(t, 128)
	if m.UsedKeys() != 128 {
		t.Errorf("UsedKeys = %d, want 128", m.UsedKeys())
	}
	if m.Scheme() != "afl" {
		t.Errorf("Scheme = %q", m.Scheme())
	}
}

// TestAFLBaselineCostGrowsWithMapSize pins the AFL scheme as the paper's
// baseline (DESIGN §8): its per-exec Reset and Classify traverse the whole
// map, so with the same sparse trace an 8M map must cost at least 16x a 64k
// one. A sparse or dirty-block reset would flatten the ratio and erase the
// Figure 3/6 gap this scheme exists to show. Timings are the minimum of
// several runs, which drops scheduler noise; E12 measures about 40x.
func TestAFLBaselineCostGrowsWithMapSize(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	trace := make([]uint32, 1000)
	for i := range trace {
		trace[i] = uint32(i*61) % MapSize64K
	}
	minCost := func(size int) time.Duration {
		m := mustAFL(t, size)
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 20; i++ {
			m.AddBatch(trace)
			start := time.Now()
			m.Classify()
			m.Reset()
			best = min(best, time.Since(start))
		}
		return best
	}
	small, large := minCost(MapSize64K), minCost(MapSize8M)
	ratio := float64(large) / float64(small)
	t.Logf("Reset+Classify: 64k %v, 8M %v, ratio %.1fx", small, large, ratio)
	if ratio < 16 {
		t.Fatalf("8M map costs %.1fx a 64k map, want at least 16x: the AFL baseline must touch the whole map", ratio)
	}
}
