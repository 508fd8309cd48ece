package core

import (
	"bytes"
	"testing"

	"github.com/bigmap/bigmap/internal/rng"
)

// The word-level kernels must be byte-for-byte equivalent to the scalar
// references on every input: same classified bitmap, same verdict, same
// virgin mutation, same counts and scan indices. These tests pin that down
// with a go test -fuzz differential fuzzer (seeded so plain `go test` still
// exercises the corners), a testing/quick property, and exhaustive
// single-word cases around the alignment and bucket boundaries.

// checkKernelEquivalence runs every kernel pair on one trace/virgin input
// and fails the test on the first divergence. virgin is stretched or
// truncated to the trace length with undiscovered (0xFF) padding.
func checkKernelEquivalence(t *testing.T, trace, virgin []byte) {
	t.Helper()
	virgin = append([]byte(nil), virgin...)
	for len(virgin) < len(trace) {
		virgin = append(virgin, 0xFF)
	}
	virgin = virgin[:len(trace)]

	// Classify.
	gotTrace := append([]byte(nil), trace...)
	wantTrace := append([]byte(nil), trace...)
	classifyRegion(gotTrace)
	classifyScalar(wantTrace)
	if !bytes.Equal(gotTrace, wantTrace) {
		t.Fatalf("classify diverged\n trace %x\n word  %x\n scalar %x", trace, gotTrace, wantTrace)
	}

	// Compare (on the classified trace, as the split pipeline runs it).
	gotVirgin := append([]byte(nil), virgin...)
	wantVirgin := append([]byte(nil), virgin...)
	gotVerdict, gotNew := compareRegion(gotTrace, gotVirgin)
	wantVerdict, wantNew := compareScalar(wantTrace, wantVirgin, VerdictNone, 0)
	if gotVerdict != wantVerdict {
		t.Fatalf("compare verdict diverged: word %v scalar %v (trace %x virgin %x)", gotVerdict, wantVerdict, gotTrace, virgin)
	}
	if gotNew != wantNew {
		t.Fatalf("compare newEdges diverged: word %d scalar %d", gotNew, wantNew)
	}
	if !bytes.Equal(gotVirgin, wantVirgin) {
		t.Fatalf("compare virgin diverged\n word  %x\n scalar %x", gotVirgin, wantVirgin)
	}

	// Merged classify+compare, from the raw counts.
	gotTrace = append([]byte(nil), trace...)
	wantTrace = append([]byte(nil), trace...)
	gotVirgin = append([]byte(nil), virgin...)
	wantVirgin = append([]byte(nil), virgin...)
	gotVerdict, gotNew = classifyCompareRegion(gotTrace, gotVirgin)
	wantVerdict, wantNew = classifyCompareScalar(wantTrace, wantVirgin, VerdictNone, 0)
	if gotVerdict != wantVerdict {
		t.Fatalf("merged verdict diverged: word %v scalar %v", gotVerdict, wantVerdict)
	}
	if gotNew != wantNew {
		t.Fatalf("merged newEdges diverged: word %d scalar %d", gotNew, wantNew)
	}
	// The incremental count must agree with the byte definition: newly
	// discovered slots are exactly the virgin bytes that left 0xFF.
	wantTransitions := 0
	for i := range virgin {
		if virgin[i] == 0xFF && gotVirgin[i] != 0xFF {
			wantTransitions++
		}
	}
	if gotNew != wantTransitions {
		t.Fatalf("newEdges %d != %d observed 0xFF transitions", gotNew, wantTransitions)
	}
	if !bytes.Equal(gotTrace, wantTrace) || !bytes.Equal(gotVirgin, wantVirgin) {
		t.Fatalf("merged bitmaps diverged\n trace word %x scalar %x\n virgin word %x scalar %x",
			gotTrace, wantTrace, gotVirgin, wantVirgin)
	}

	// Counting and scanning.
	if got, want := countNonZeroRegion(trace), countNonZeroScalar(trace); got != want {
		t.Fatalf("countNonZero diverged: word %d scalar %d (trace %x)", got, want, trace)
	}
	if got, want := lastNonZero(trace), lastNonZeroScalar(trace); got != want {
		t.Fatalf("lastNonZero diverged: word %d scalar %d (trace %x)", got, want, trace)
	}
	var gotIdx, wantIdx []uint32
	gotIdx = appendTouchedRegion(gotIdx, trace)
	wantIdx = appendTouchedScalar(wantIdx, trace)
	if len(gotIdx) != len(wantIdx) {
		t.Fatalf("appendTouched length diverged: word %d scalar %d", len(gotIdx), len(wantIdx))
	}
	for i := range gotIdx {
		if gotIdx[i] != wantIdx[i] {
			t.Fatalf("appendTouched index %d diverged: word %d scalar %d", i, gotIdx[i], wantIdx[i])
		}
	}
}

// FuzzKernelEquivalence is the differential fuzzer: arbitrary trace/virgin
// byte pairs through every scalar/word kernel pair. Run with
// `go test -fuzz FuzzKernelEquivalence ./internal/core`.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1}, []byte{0xFF})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1}, []byte{0xFF})
	f.Add(bytes.Repeat([]byte{3}, 17), bytes.Repeat([]byte{0x55}, 17))
	f.Add(bytes.Repeat([]byte{255}, 32), bytes.Repeat([]byte{0}, 32))
	f.Add([]byte{0, 1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 127, 128, 255}, []byte{0xFF, 0xFE, 1, 0, 0x80, 0x0F})
	f.Fuzz(func(t *testing.T, trace, virgin []byte) {
		if len(trace) > 1<<12 {
			trace = trace[:1<<12]
		}
		checkKernelEquivalence(t, trace, virgin)
	})
}

// TestKernelEquivalenceRandom sweeps random dense and sparse trace/virgin
// pairs of awkward lengths through the differential check; the sparse cases
// exercise the zero-word skip paths, the dense ones the per-byte fallbacks.
func TestKernelEquivalenceRandom(t *testing.T) {
	src := rng.New(0xdead)
	for iter := 0; iter < 500; iter++ {
		n := src.Intn(200)
		trace := make([]byte, n)
		virgin := make([]byte, n)
		density := 1 + src.Intn(100) // percent of non-zero trace bytes
		for i := range trace {
			if src.Intn(100) < density {
				trace[i] = byte(1 + src.Intn(255))
			}
			switch src.Intn(4) {
			case 0:
				virgin[i] = 0xFF // undiscovered
			case 1:
				virgin[i] = 0x00 // fully discovered
			default:
				virgin[i] = byte(src.Uint32()) // partially discovered
			}
		}
		checkKernelEquivalence(t, trace, virgin)
	}
}

// TestKernelEquivalenceBoundaries walks every bucket-boundary count through
// every byte lane and alignment so the halfword packing cannot hide a
// lane-swap bug, with a virgin byte sweep that covers all discovery states.
func TestKernelEquivalenceBoundaries(t *testing.T) {
	counts := []byte{0, 1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 127, 128, 255}
	virgins := []byte{0xFF, 0xFE, 0x80, 0x0F, 0x01, 0x00}
	for size := 1; size <= 24; size++ {
		for lane := 0; lane < size; lane++ {
			for _, c := range counts {
				for _, v := range virgins {
					trace := make([]byte, size)
					trace[lane] = c
					virgin := bytes.Repeat([]byte{v}, size)
					checkKernelEquivalence(t, trace, virgin)
				}
			}
		}
	}
}

func TestClassifyWordMatchesLookup(t *testing.T) {
	src := rng.New(7)
	buf := make([]byte, 8)
	want := make([]byte, 8)
	for iter := 0; iter < 10000; iter++ {
		for i := range buf {
			buf[i] = byte(src.Uint32())
		}
		copy(want, buf)
		for i, b := range want {
			want[i] = classifyLookup[b]
		}
		storeWord(buf, classifyWord(loadWord(buf)))
		if !bytes.Equal(buf, want) {
			t.Fatalf("classifyWord diverged: got %x want %x", buf, want)
		}
	}
}

// TestAddBatchMatchesAdd pins AddBatch to its contract: exactly a loop of
// Adds, including slot-assignment order and saturation, for both schemes.
func TestAddBatchMatchesAdd(t *testing.T) {
	const size = 512
	src := rng.New(11)
	for _, scheme := range []string{"afl", "bigmap"} {
		single, err := newSchemeMap(scheme, size)
		if err != nil {
			t.Fatal(err)
		}
		batched, err := newSchemeMap(scheme, size)
		if err != nil {
			t.Fatal(err)
		}
		vs, vb := single.NewVirgin(), batched.NewVirgin()
		for step := 0; step < 200; step++ {
			keys := make([]uint32, src.Intn(600))
			for i := range keys {
				keys[i] = uint32(src.Intn(size))
			}
			single.Reset()
			batched.Reset()
			for _, k := range keys {
				single.Add(k)
			}
			batched.AddBatch(keys)
			if g, w := batched.CountNonZero(), single.CountNonZero(); g != w {
				t.Fatalf("%s step %d: nonzero %d != %d", scheme, step, g, w)
			}
			single.Classify()
			if g, w := batched.ClassifyAndCompare(vb), single.CompareWith(vs); g != w {
				t.Fatalf("%s step %d: verdict %v != %v", scheme, step, g, w)
			}
			if g, w := batched.Hash(), single.Hash(); g != w {
				t.Fatalf("%s step %d: hash %#x != %#x", scheme, step, g, w)
			}
			if g, w := batched.UsedKeys(), single.UsedKeys(); g != w {
				t.Fatalf("%s step %d: used %d != %d", scheme, step, g, w)
			}
		}
	}
}

func newSchemeMap(scheme string, size int) (Map, error) {
	if scheme == "afl" {
		return NewAFLMap(size)
	}
	return NewBigMap(size)
}

// TestBigMapHighWaterMark checks the invariant the clipped traversals rely
// on: every slot above the mark is zero, and the mark tracks the maximum
// touched slot, not the most recent one.
func TestBigMapHighWaterMark(t *testing.T) {
	m := mustBig(t, 256)
	if m.hw != -1 {
		t.Fatalf("fresh map hw = %d, want -1", m.hw)
	}
	m.Add(10) // slot 0
	m.Add(20) // slot 1
	m.Add(30) // slot 2
	if m.hw != 2 {
		t.Fatalf("hw = %d after three discoveries, want 2", m.hw)
	}
	m.Reset()
	if m.hw != -1 {
		t.Fatalf("hw = %d after reset, want -1", m.hw)
	}
	m.Add(20) // existing slot 1; slots 0 and 2 stay zero
	if m.hw != 1 {
		t.Fatalf("hw = %d, want 1", m.hw)
	}
	m.Add(10) // lower slot must not move the mark down
	if m.hw != 1 {
		t.Fatalf("hw = %d after touching lower slot, want 1", m.hw)
	}
	for _, b := range m.coverage[m.hw+1 : m.used] {
		if b != 0 {
			t.Fatal("slot above high-water mark is non-zero")
		}
	}
	if got := m.CountNonZero(); got != 2 {
		t.Fatalf("CountNonZero = %d, want 2", got)
	}
	if got := m.AppendTouched(nil); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("AppendTouched = %v, want [0 1]", got)
	}
}

// TestBigMapAddAllocs is the allocation regression test for slot-key
// preallocation: discovering up to initialSlotCap keys must not allocate at
// all, and a full 16x overshoot must cost only the geometric growth steps.
func TestBigMapAddAllocs(t *testing.T) {
	m := mustBig(t, MapSize64K)
	allocs := testing.AllocsPerRun(5, func() {
		m.Reset()
		for k := uint32(0); k < initialSlotCap; k++ {
			m.Add(k)
		}
	})
	if allocs != 0 {
		t.Errorf("Add within preallocated capacity: %.1f allocs/run, want 0", allocs)
	}

	fresh := mustBig(t, MapSize64K)
	grow := testing.AllocsPerRun(1, func() {
		for k := uint32(0); k < 16*initialSlotCap; k++ {
			fresh.Add(k)
		}
	})
	// 4096 -> 8192 -> 16384 -> 32768 -> 65536: four doublings.
	if grow > 4 {
		t.Errorf("Add across 16x capacity overshoot: %.1f allocs/run, want <= 4 (geometric growth)", grow)
	}
}

// TestAddBatchAllocs: flushing batches through AddBatch must never allocate
// once slots fit in capacity.
func TestAddBatchAllocs(t *testing.T) {
	m := mustBig(t, MapSize64K)
	keys := make([]uint32, 2048)
	for i := range keys {
		keys[i] = uint32(i * 3)
	}
	allocs := testing.AllocsPerRun(5, func() {
		m.Reset()
		m.AddBatch(keys)
	})
	if allocs != 0 {
		t.Errorf("AddBatch: %.1f allocs/run, want 0", allocs)
	}
}

// TestBigMapResetClearsOnlyTouchedRegion: after a sparse execution, Reset
// must still leave the whole used region clean (the clipped clear may not
// strand stale counts above the mark).
func TestBigMapResetClearsOnlyTouchedRegion(t *testing.T) {
	m := mustBig(t, 256)
	for k := uint32(0); k < 100; k++ {
		m.Add(k)
	}
	m.Reset()
	m.Add(5) // slot 5 only; hw = 5
	m.Reset()
	for i, b := range m.coverage[:m.used] {
		if b != 0 {
			t.Fatalf("slot %d = %d after reset, want 0", i, b)
		}
	}
	if m.Hash() != hashBytes(nil) {
		t.Fatal("empty-trace hash wrong after clipped reset")
	}
}
