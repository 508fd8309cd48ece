package mutation

import (
	"testing"

	"github.com/bigmap/bigmap/internal/rng"
)

// benchBase is the havoc benchmark's 64-byte seed, the size of a typical
// generated-target input.
func benchBase() []byte {
	base := make([]byte, 64)
	for i := range base {
		base[i] = byte(i*7 + 3)
	}
	return base
}

// spliceMate differs from benchBase in its middle, so Splice always finds a
// split point.
func spliceMate() []byte {
	b := benchBase()
	for i := 8; i < 56; i++ {
		b[i] ^= 0x5A
	}
	return b
}

// BenchmarkHavoc measures one stacked havoc mutant of a 64-byte base, and
// one Havoc(Splice(a, b)) as the splice stage runs it. Both are 0 allocs/op
// once the mutator's buffers have grown to the mutants' sizes.
func BenchmarkHavoc(b *testing.B) {
	dict := [][]byte{[]byte("IHDR"), []byte("tEXt")}
	base, mate := benchBase(), spliceMate()
	b.Run("base64", func(b *testing.B) {
		m := New(rng.New(1), dict)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Havoc(base)
		}
	})
	b.Run("splice64", func(b *testing.B) {
		m := New(rng.New(1), dict)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Havoc(m.Splice(base, mate))
		}
	})
}

// TestHavocSpliceZeroAllocs is the runtime counterpart of the
// //bigmap:hotpath annotations on Havoc and Splice: after warm-up, neither
// the havoc stage nor the splice stage allocates.
func TestHavocSpliceZeroAllocs(t *testing.T) {
	dict := [][]byte{[]byte("IHDR"), []byte("tEXt")}
	base, mate := benchBase(), spliceMate()
	m := New(rng.New(1), dict)
	havoc := func() { m.Havoc(base) }
	splice := func() { m.Havoc(m.Splice(base, mate)) }
	// Warm-up grows the result buffers to the largest mutants the stacked
	// operators produce from these bases.
	for i := 0; i < 5000; i++ {
		havoc()
		splice()
	}
	if a := testing.AllocsPerRun(500, havoc); a != 0 {
		t.Errorf("Havoc allocates %.2f per call, want 0", a)
	}
	if a := testing.AllocsPerRun(500, splice); a != 0 {
		t.Errorf("Havoc(Splice(a, b)) allocates %.2f per call, want 0", a)
	}
}
