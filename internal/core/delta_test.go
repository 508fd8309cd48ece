package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/bigmap/bigmap/internal/rng"
	"github.com/bigmap/bigmap/internal/selffuzz/seedcorpus"
)

// virginPairAt builds prev/cur virgin byte maps of the given size with cur
// strictly more discovered (monotonic), deterministic in the mutation list.
func discoverBytes(size int, prevHits, curHits map[int]byte) (prev, cur []byte) {
	prev = make([]byte, size)
	cur = make([]byte, size)
	for i := range prev {
		prev[i] = 0xFF
		cur[i] = 0xFF
	}
	for pos, b := range prevHits {
		prev[pos] &= b
		cur[pos] &= b
	}
	for pos, b := range curHits {
		cur[pos] &= b
	}
	return prev, cur
}

func TestDiffApplyRoundTrip(t *testing.T) {
	for _, size := range []int{8, 64, 4096, MapSize64K} {
		prev, cur := discoverBytes(size,
			map[int]byte{0: 0xFE, 7: 0x7F, size - 1: 0xDF},
			map[int]byte{1: 0xFB, 7: 0x3F, size / 2: 0x00, size - 2: 0xEF})
		d := DiffVirginBytes(prev, cur)
		if len(d.Words) == 0 {
			t.Fatalf("size %d: empty delta for a real change", size)
		}
		got := append([]byte(nil), prev...)
		disc, err := d.Apply(got)
		if err != nil {
			t.Fatalf("size %d: apply: %v", size, err)
		}
		if !bytes.Equal(got, cur) {
			t.Fatalf("size %d: apply(prev) != cur", size)
		}
		// Newly discovered bytes: positions that were 0xFF in prev and are
		// not in cur.
		want := 0
		for i := range cur {
			if prev[i] == 0xFF && cur[i] != 0xFF {
				want++
			}
		}
		if disc != want {
			t.Fatalf("size %d: discovered %d, want %d", size, disc, want)
		}
		// Idempotence: applying again discovers nothing and changes nothing.
		again := append([]byte(nil), got...)
		disc2, err := d.Apply(again)
		if err != nil || disc2 != 0 || !bytes.Equal(again, got) {
			t.Fatalf("size %d: re-apply not a no-op (disc=%d err=%v)", size, disc2, err)
		}
	}
}

func TestDiffNilBaseline(t *testing.T) {
	_, cur := discoverBytes(64, nil, map[int]byte{3: 0x0F, 40: 0xFE})
	d := DiffVirginBytes(nil, cur)
	fresh := make([]byte, 64)
	for i := range fresh {
		fresh[i] = 0xFF
	}
	if _, err := d.Apply(fresh); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh, cur) {
		t.Fatal("nil-baseline delta does not reconstruct cur on a fresh map")
	}
	if n := len(DiffVirginBytes(nil, fresh).Words); n != len(d.Words) {
		t.Fatalf("re-diff of reconstruction has %d words, want %d", n, len(d.Words))
	}
}

// TestDiffVirginBytesMatchesScalar pins the word-level diff walk against the
// byte-at-a-time reference on random pairs, covering nil baselines, ragged
// tails and both monotonic and arbitrary (non-virgin-shaped) byte patterns.
func TestDiffVirginBytesMatchesScalar(t *testing.T) {
	src := rng.New(91)
	for _, size := range []int{0, 1, 7, 8, 9, 63, 64, 65, 4096} {
		for trial := 0; trial < 50; trial++ {
			cur := make([]byte, size)
			prev := make([]byte, size)
			for i := range cur {
				cur[i] = byte(src.Uint64())
				prev[i] = byte(src.Uint64())
			}
			for _, p := range [][]byte{nil, prev} {
				got := DiffVirginBytes(p, cur)
				want := DiffVirginBytesScalar(p, cur)
				if got.Size != want.Size || len(got.Words) != len(want.Words) {
					t.Fatalf("size %d: diff shape %d/%d words, scalar %d/%d",
						size, got.Size, len(got.Words), want.Size, len(want.Words))
				}
				for i := range got.Words {
					if got.Words[i] != want.Words[i] {
						t.Fatalf("size %d word %d: %+v != scalar %+v",
							size, i, got.Words[i], want.Words[i])
					}
				}
			}
		}
	}
}

func TestDeltaCodecRoundTrip(t *testing.T) {
	prev, cur := discoverBytes(4096,
		map[int]byte{100: 0x7F},
		map[int]byte{0: 0x00, 101: 0xF7, 4095: 0x01})
	d := DiffVirginBytes(prev, cur)
	enc := EncodeVirginDelta(d)
	dec, err := DecodeVirginDelta(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Size != d.Size || len(dec.Words) != len(d.Words) {
		t.Fatalf("decoded shape %d/%d, want %d/%d", dec.Size, len(dec.Words), d.Size, len(d.Words))
	}
	for i := range d.Words {
		if dec.Words[i] != d.Words[i] {
			t.Fatalf("word %d: %+v != %+v", i, dec.Words[i], d.Words[i])
		}
	}
	if !bytes.Equal(EncodeVirginDelta(dec), enc) {
		t.Fatal("re-encode of decode is not bit-identical")
	}
}

func TestDeltaCodecEmpty(t *testing.T) {
	enc := EncodeVirginDelta(VirginDelta{Size: MapSize64K})
	dec, err := DecodeVirginDelta(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Size != MapSize64K || len(dec.Words) != 0 {
		t.Fatalf("empty delta decoded as %+v", dec)
	}
}

func TestDeltaCodecRejectsCorruption(t *testing.T) {
	prev, cur := discoverBytes(64, nil, map[int]byte{5: 0x0F, 63: 0xFE})
	enc := EncodeVirginDelta(DiffVirginBytes(prev, cur))
	// Every single-bit corruption must be rejected: the frame is CRC'd, so
	// a flipped bit either breaks the CRC or (if it lands in the CRC
	// trailer) mismatches the body.
	for i := range enc {
		for bit := 0; bit < 8; bit++ {
			bad := append([]byte(nil), enc...)
			bad[i] ^= 1 << bit
			if _, err := DecodeVirginDelta(bad); err == nil {
				t.Fatalf("byte %d bit %d: corruption accepted", i, bit)
			}
		}
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short", []byte("BMVD")},
		{"truncated", enc[:len(enc)-5]},
		{"trailing", append(append([]byte(nil), enc...), 0)},
	} {
		if _, err := DecodeVirginDelta(tc.data); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
}

// TestDeltaApplyMergeOrderIrrelevant publishes the virgin state of several
// flat and two-level instances (random slot assignments, random discovered
// bytes) as raw-key deltas and AND-merges them into a union forward, and
// again reversed with every delta applied twice. AND-merges are
// commutative and idempotent, so both unions, and their discovered counts,
// must equal a plain per-raw-key AND of the instances' bytes.
func TestDeltaApplyMergeOrderIrrelevant(t *testing.T) {
	src := rng.New(0x5eed)
	const size = 256
	model := make([]byte, size)
	FillVirgin(model)
	var deltas []VirginDelta
	for i := 0; i < 6; i++ {
		var m Map
		var keyOf func(slot int) int
		if i%2 == 0 {
			m, _ = NewAFLMap(size)
			keyOf = func(slot int) int { return slot }
		} else {
			bm, _ := NewBigMap(size)
			for n := 1 + src.Intn(size/2); bm.UsedKeys() < n; {
				bm.Add(uint32(src.Intn(size)))
			}
			bm.Reset()
			m = bm
			keyOf = func(slot int) int { k, _ := bm.KeyForSlot(slot); return int(k) }
		}
		v := m.NewVirgin()
		density := 1 + src.Intn(60)
		for slot := 0; slot < m.UsedKeys(); slot++ {
			if src.Intn(100) >= density {
				continue
			}
			b := byte(src.Uint32()) &^ 1 // any value below full-virgin
			v.cover(slot + 1)
			v.bits[slot] = b
			model[keyOf(slot)] &= b
		}
		d, _ := m.DiffVirgin(nil, v)
		deltas = append(deltas, d)
	}
	wantDisc := 0
	for _, b := range model {
		if b != 0xFF {
			wantDisc++
		}
	}
	merge := func(order []int) ([]byte, int) {
		union := make([]byte, size)
		FillVirgin(union)
		total := 0
		for _, i := range order {
			n, err := deltas[i].Apply(union)
			if err != nil {
				t.Fatal(err)
			}
			total += n
		}
		return union, total
	}
	forward, fwdDisc := merge([]int{0, 1, 2, 3, 4, 5})
	backward, bwdDisc := merge([]int{5, 5, 4, 3, 3, 2, 1, 0, 0})
	if !bytes.Equal(forward, model) || fwdDisc != wantDisc {
		t.Fatalf("forward union diverged from the per-key AND model (discovered %d, want %d)", fwdDisc, wantDisc)
	}
	if !bytes.Equal(backward, forward) || bwdDisc != fwdDisc {
		t.Fatalf("merge order changed the union (discovered %d vs %d)", bwdDisc, fwdDisc)
	}
}

func TestDeltaApplySizeMismatch(t *testing.T) {
	d := VirginDelta{Size: 64}
	if _, err := d.Apply(make([]byte, 32)); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

// TestWriteVirginDeltaCorpus regenerates the FuzzVirginDeltaCodec seed
// corpus: valid encodings at several sizes (empty, dense, sparse, tail
// word), plus truncations and near-miss frames that exercise every decoder
// rejection path. Gated behind BIGMAP_WRITE_CORPUS=1 like the other
// corpus writers (see internal/selffuzz).
func TestWriteVirginDeltaCorpus(t *testing.T) {
	if os.Getenv("BIGMAP_WRITE_CORPUS") != "1" {
		t.Skip("set BIGMAP_WRITE_CORPUS=1 to regenerate testdata/fuzz corpora")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzVirginDeltaCodec")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var seeds [][]byte
	// Valid frames.
	seeds = append(seeds, EncodeVirginDelta(VirginDelta{Size: 8}))
	_, cur := discoverBytes(64, nil, map[int]byte{0: 0x00, 9: 0x7F, 63: 0xFE})
	seeds = append(seeds, EncodeVirginDelta(DiffVirginBytes(nil, cur)))
	prev2, cur2 := discoverBytes(4096, map[int]byte{8: 0x0F}, map[int]byte{8: 0x03, 100: 0x55, 4095: 0x00})
	seeds = append(seeds, EncodeVirginDelta(DiffVirginBytes(prev2, cur2)))
	dense := make([]byte, 128)
	for i := range dense {
		dense[i] = byte(i)
	}
	seeds = append(seeds, EncodeVirginDelta(DiffVirginBytes(nil, dense)))
	// Rejection paths: bad magic, bad version, bad size, truncation.
	good := seeds[1]
	badMagic := append([]byte(nil), good...)
	badMagic[0] = 'X'
	badVersion := append([]byte(nil), good...)
	badVersion[4] = 99
	seeds = append(seeds, badMagic, badVersion, good[:len(good)-3], []byte("BMVD"))
	for i, s := range seeds {
		name := "seed-" + string(rune('a'+i))
		if err := seedcorpus.WriteFile(dir, name, s); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
