package core

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzVirginDeltaCodec pins the virgin-delta wire codec's two contracts
// under arbitrary inputs:
//
//  1. Corruption rejection: DecodeVirginDelta never panics and never
//     over-allocates on garbage; whatever it rejects, it rejects with an
//     error, not a crash.
//  2. Fixed point: every accepted input re-encodes bit for bit
//     (EncodeVirginDelta(DecodeVirginDelta(b)) == b), every accepted delta
//     applies cleanly to a fresh map of its declared size, and re-diffing
//     the applied result against the all-0xFF baseline reproduces the
//     decoded delta exactly — decode, apply and diff agree on what the
//     delta means.
func FuzzVirginDeltaCodec(f *testing.F) {
	f.Add(EncodeVirginDelta(VirginDelta{Size: 8}))
	cur := make([]byte, 64)
	for i := range cur {
		cur[i] = 0xFF
	}
	cur[3] = 0x0F
	cur[40] = 0x00
	f.Add(EncodeVirginDelta(DiffVirginBytes(nil, cur)))
	f.Add([]byte("BMVD"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeVirginDelta(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeVirginDelta(d), data) {
			t.Fatalf("accepted input is not a codec fixed point (%d bytes)", len(data))
		}
		fresh := make([]byte, d.Size)
		for i := range fresh {
			fresh[i] = 0xFF
		}
		disc, err := d.Apply(fresh)
		if err != nil {
			t.Fatalf("accepted delta failed to apply: %v", err)
		}
		nonVirgin := 0
		for _, b := range fresh {
			if b != 0xFF {
				nonVirgin++
			}
		}
		if disc != nonVirgin {
			t.Fatalf("apply reported %d discovered, map shows %d", disc, nonVirgin)
		}
		rediff := DiffVirginBytes(nil, fresh)
		if len(rediff.Words) != len(d.Words) {
			t.Fatalf("re-diff has %d words, decoded delta %d", len(rediff.Words), len(d.Words))
		}
		for i := range d.Words {
			if rediff.Words[i] != d.Words[i] {
				t.Fatalf("re-diff word %d: %+v != %+v", i, rediff.Words[i], d.Words[i])
			}
		}
		// Kernel parity: the word-level diff must match the byte-at-a-time
		// reference on the applied state.
		scalar := DiffVirginBytesScalar(nil, fresh)
		if len(scalar.Words) != len(rediff.Words) {
			t.Fatalf("scalar diff has %d words, word-level %d", len(scalar.Words), len(rediff.Words))
		}
		for i := range scalar.Words {
			if scalar.Words[i] != rediff.Words[i] {
				t.Fatalf("scalar diff word %d: %+v != %+v", i, scalar.Words[i], rediff.Words[i])
			}
		}
	})
}

// renderRawKeys is the reference raw-key rendering of a BigMap virgin: a
// map-size all-0xFF byte map with each assigned slot's byte ANDed into its
// key. It is what a worker used to build and diff on every publish; it stays
// here only to pin BigMap.DiffVirgin against it.
func renderRawKeys(size int, slotKeys []uint32, dense []byte) []byte {
	out := make([]byte, size)
	FillVirgin(out)
	for slot, key := range slotKeys {
		if slot < len(dense) {
			out[key] &= dense[slot]
		}
	}
	return out
}

// FuzzBigMapDiffVirgin pins the O(used_key) publish path: across random slot
// assignments, virgin evolution (kernel discoveries, suppressions and
// arbitrary byte rewrites) and resumes (a nil last), BigMap.DiffVirgin must
// return exactly the delta DiffVirginBytes computes over the raw-key
// renderings of the previous and current states.
func FuzzBigMapDiffVirgin(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 0, 3, 4, 1, 9, 0x0F, 5, 2})
	f.Add([]byte{3, 0, 1, 7, 0, 2, 9, 3, 5, 0x00, 4, 3, 1, 2, 8, 0xAA, 2, 5})
	f.Add([]byte{7, 2, 0, 1, 2, 0, 255, 255, 0, 17, 4, 1, 2, 3, 5, 2, 0, 40, 0x7F, 4})
	// Slot order differs from key order: the delta's words must still ascend.
	f.Add([]byte("1100000A1X"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		size := 16 << (data[0] % 8)
		m, err := NewBigMapSlots(size, 1+int(data[0]>>3)*size/32)
		if err != nil {
			t.Fatal(err)
		}
		v := m.NewVirgin()
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		data = data[1:]
		var last, lastRender []byte
		for len(data) > 0 {
			switch next() % 6 {
			case 0: // assign or hit a key
				m.Add((uint32(next())<<8 | uint32(next())) % uint32(size))
			case 1: // the fuzzer's path: classify, compare, reset
				m.ClassifyAndCompare(v)
				m.Reset()
			case 2: // calibration suppresses an unstable slot
				if m.used > 0 {
					v.Suppress(uint32(int(next()) % m.used))
				}
			case 3: // arbitrary rewrite of one stored slot
				if m.used > 0 {
					s := int(next()) % m.used
					v.cover(s + 1)
					v.bits[s] = next()
				}
			case 4: // publish
				d, cur := m.DiffVirgin(last, v)
				render := renderRawKeys(size, m.SlotKeys(), v.bits)
				want := DiffVirginBytes(lastRender, render)
				if d.Size != want.Size || !slices.Equal(d.Words, want.Words) {
					t.Fatalf("DiffVirgin = %+v, raw-key reference %+v", d, want)
				}
				last, lastRender = cur, render
			case 5: // resume: the next publish re-sends everything
				last, lastRender = nil, nil
			}
		}
	})
}
