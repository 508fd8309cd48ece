package selffuzz

import (
	"bytes"
	"fmt"

	"github.com/bigmap/bigmap/internal/checkpoint"
)

// Corruption op codes — a second tiny total codec, this one describing byte
// surgery on an encoded checkpoint: bit flips, byte stores, truncations and
// region duplications, each positioned by a 2-byte operand taken modulo the
// current file length.
const (
	corrFlipBit byte = iota
	corrSetByte
	corrTruncate
	corrDuplicate
	numCorrOps
)

// maxCorrOps bounds the surgery per fuzz execution.
const maxCorrOps = 64

// applyCorruption decodes script as corruption ops and applies them to a
// copy of data.
func applyCorruption(data []byte, script []byte) []byte {
	out := append([]byte(nil), data...)
	for n := 0; len(script) > 0 && n < maxCorrOps; n++ {
		code := script[0] % numCorrOps
		script = script[1:]
		pos := int(readU16(&script))
		if len(out) == 0 && code != corrDuplicate {
			continue
		}
		switch code {
		case corrFlipBit:
			bit := pos % (len(out) * 8)
			out[bit/8] ^= 1 << (bit % 8)
		case corrSetByte:
			val := readU8(&script)
			out[pos%len(out)] = val
		case corrTruncate:
			out = out[:pos%(len(out)+1)]
		case corrDuplicate:
			if len(out) == 0 {
				continue
			}
			start := pos % len(out)
			ln := int(readU8(&script)) % (len(out) - start + 1)
			out = append(out, out[start:start+ln]...)
		}
	}
	return out
}

// sampleState builds a deterministic, fully populated FuzzerState whose every
// field depends on seed, so corruption lands on different payload regions
// across seeds (varint boundaries shift with the values).
func sampleState(seed uint64) *checkpoint.FuzzerState {
	x := seed
	next := func() uint64 { x = splitmix(x); return x }
	nb := func(n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = byte(next())
		}
		return out
	}
	// nv is a canonical sparse virgin of n slots: random words, bytes past
	// n kept at 0xFF, all-0xFF words left out.
	nv := func(n int) checkpoint.Virgin {
		v := checkpoint.Virgin{Len: uint64(n)}
		for i := 0; 8*i < n; i++ {
			w := next()
			if tail := n - 8*i; tail < 8 {
				w |= ^uint64(0) << (8 * tail)
			}
			if w != ^uint64(0) {
				v.Words = append(v.Words, checkpoint.VirginWord{Index: uint32(i), Word: w})
			}
		}
		return v
	}
	st := &checkpoint.FuzzerState{
		Scheme:      "bigmap",
		MapSize:     1 << (10 + seed%8),
		RNG:         [4]uint64{next(), next(), next(), next()},
		MutRNG:      [4]uint64{next(), next(), next(), next()},
		Execs:       next(),
		CyclesDone:  next() % (1 << 40),
		QueuePos:    next() % 64,
		VirginAll:   nv(int(16 + seed%64)),
		VirginCrash: nv(8),
		VirginHang:  nv(8),
		SlotKeys:    []uint32{uint32(next()), uint32(next()), uint32(next())},
		TopSlots:    []uint32{1, 2, 3},
		TopEntries:  []uint64{0, 1, next() % 8},
		Paths:       []checkpoint.PathFreq{{Hash: next(), Count: 1 + next()%9}},
	}
	for i := 0; i < int(1+seed%4); i++ {
		st.Entries = append(st.Entries, checkpoint.Entry{
			Input:     nb(int(1 + next()%24)),
			Cycles:    next() % (1 << 30),
			Touched:   []uint32{uint32(next() % 4096), uint32(next() % 4096)},
			PathHash:  next(),
			Depth:     int(next() % 12),
			FoundBy:   "havoc",
			Favored:   next()%2 == 0,
			WasFuzzed: next()%3 == 0,
			FuzzLevel: int(next() % 5),
		})
	}
	st.Crashes = append(st.Crashes, checkpoint.CrashRecord{
		Key: next(), Site: uint32(next() % 1024), StackDepth: int(next() % 6),
		Count: int(1 + next()%4), Input: nb(int(1 + next()%16)),
	})
	return st
}

// splitmix is SplitMix64 (duplicated from internal/collision to keep this
// package's dependencies one-way through public API only).
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hammingDistance counts differing bits between two byte strings of possibly
// different lengths (length delta counts as all-bits-differ via a large
// sentinel return).
func hammingDistance(a, b []byte) int {
	if len(a) != len(b) {
		return 1 << 30
	}
	d := 0
	for i := range a {
		x := a[i] ^ b[i]
		for x != 0 {
			d++
			x &= x - 1
		}
	}
	return d
}

// RunCheckpointCorruption encodes a seed-derived campaign state, performs
// script-driven byte surgery on the file, and checks the decoder's paranoia
// contract beyond the round-trip fuzz the codec already has:
//
//   - the decoder never panics (enforced by the fuzzing engine),
//   - an untouched file still decodes and round-trips,
//   - ANY single-bit corruption is rejected (CRC32 detects all 1-bit errors
//     — if this ever passes, someone removed or weakened the checksum),
//   - whatever the decoder does accept must re-encode and re-decode to the
//     same state (no half-parsed garbage escapes).
func RunCheckpointCorruption(seed uint64, script []byte) error {
	original := checkpoint.EncodeFuzzer(sampleState(seed))
	corrupted := applyCorruption(original, script)

	st, err := checkpoint.DecodeFuzzer(corrupted)
	if bytes.Equal(corrupted, original) {
		if err != nil {
			return fmt.Errorf("pristine checkpoint rejected: %w", err)
		}
	} else if hammingDistance(corrupted, original) == 1 {
		if err == nil {
			return fmt.Errorf("single-bit corruption accepted — CRC check is broken")
		}
		return nil
	}
	if err != nil {
		return nil // rejected corruption is the expected outcome
	}
	reencoded := checkpoint.EncodeFuzzer(st)
	again, err := checkpoint.DecodeFuzzer(reencoded)
	if err != nil {
		return fmt.Errorf("re-encode of accepted state does not decode: %w", err)
	}
	if !bytes.Equal(checkpoint.EncodeFuzzer(again), reencoded) {
		return fmt.Errorf("accepted state not stable under encode/decode")
	}
	return nil
}
