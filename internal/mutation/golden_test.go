package mutation

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"github.com/bigmap/bigmap/internal/rng"
)

// The golden streams pin every byte the mutator produces and every RNG draw
// it makes: each digest covers a fixed sequence of mutants from rng.New(1)
// plus the generator's next draw afterwards, so a change that reorders,
// adds or drops a single draw changes the digest even when the mutants
// happen to agree. Campaigns are bit-identical across builds only while
// these digests hold; a deliberate change to the havoc or splice semantics
// must re-record them.

// goldenDict exercises the dictionary overwrite and insert operators.
var goldenDict = [][]byte{[]byte("IHDR"), []byte("\x89PNG"), {}, []byte("a-longer-dictionary-token")}

// goldenBases covers the empty-input path, a one-byte input, a short block
// and inputs long enough for every block operator's size range.
func goldenBases() [][]byte {
	long := make([]byte, 300)
	for i := range long {
		long[i] = byte(i*31 + 7)
	}
	mid := make([]byte, 64)
	for i := range mid {
		mid[i] = byte(i)
	}
	return [][]byte{nil, {0x41}, []byte("abcdefgh"), mid, long}
}

// goldenSpliceBases are splice partners: they share heads and tails and
// diverge in the middle, and a few pairs are too short or too similar to
// splice (Splice returns nil for those).
func goldenSpliceBases() [][]byte {
	out := [][]byte{{1, 2}, []byte("same-same-same")}
	for k := 0; k < 4; k++ {
		b := make([]byte, 40+k*37)
		for i := range b {
			b[i] = byte(i)
			if i > 3 && i < len(b)-3 && (i+k)%(k+2) == 0 {
				b[i] = byte(0xA0 + k)
			}
		}
		out = append(out, b)
	}
	return append(out, []byte("same-same-same"))
}

func hashBytes(h hash.Hash, b []byte) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
	h.Write(n[:])
	h.Write(b)
}

func hashUint(h hash.Hash, v uint64) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], v)
	h.Write(n[:])
}

// havocStream hashes 10,000 Havoc outputs over goldenBases.
func havocStream() string {
	src := rng.New(1)
	m := New(src, goldenDict)
	bases := goldenBases()
	h := sha256.New()
	for i := 0; i < 10000; i++ {
		hashBytes(h, m.Havoc(bases[i%len(bases)]))
	}
	hashUint(h, src.Uint64())
	return hex.EncodeToString(h.Sum(nil))
}

// spliceStream hashes 1,000 Havoc(Splice(a, b)) outputs over every ordered
// pair of goldenSpliceBases; a nil splice hashes as a marker.
func spliceStream() string {
	src := rng.New(1)
	m := New(src, goldenDict)
	bases := goldenSpliceBases()
	h := sha256.New()
	for i := 0; i < 1000; i++ {
		a, b := bases[i%len(bases)], bases[(i/len(bases))%len(bases)]
		s := m.Splice(a, b)
		if s == nil {
			hashUint(h, ^uint64(0))
			continue
		}
		hashBytes(h, m.Havoc(s))
	}
	hashUint(h, src.Uint64())
	return hex.EncodeToString(h.Sum(nil))
}

func TestMutatorGoldenStreams(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stream func() string
		want   string
	}{
		{"havoc", havocStream, "201f8501f022774f2421917841aa4884404ed3f7d5765fa4bb974aba1074f290"},
		{"splice", spliceStream, "d29e3de3ccfed8daa5fc1a87cd4de606ca3b94daa1da57e60d92eec60973ae29"},
	} {
		if got := tc.stream(); got != tc.want {
			t.Errorf("%s stream digest = %s, want %s", tc.name, got, tc.want)
		}
	}
}
