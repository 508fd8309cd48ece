package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Virgin-map deltas: the wire unit of the distributed campaign layer.
//
// A campaign-wide coverage union only ever loses virgin bits (0xFF =
// untouched; bits clear as buckets are discovered), so the state one worker
// has to ship at a sync boundary is not its whole virgin map but the 8-byte
// words that changed since its previous publish. DiffVirginBytes computes
// that word set with the same word-at-a-time walk the hot-path kernels use,
// VirginDelta.Apply AND-merges it into a union byte map (commutative,
// associative, idempotent — any interleaving of deltas from any set of
// workers converges to the serialized merge), and Encode/DecodeVirginDelta
// give the set a checksummed, corruption-rejecting wire form next to the
// checkpoint codec.
//
// The encoding is canonical: word indexes strictly ascending (gap-coded),
// no all-0xFF words (a no-op under AND has no business on the wire), exact
// trailing length, CRC32 over everything before the trailer. Canonical form
// makes the codec a fixed point — Encode(Decode(b)) == b for every accepted
// b — which FuzzVirginDeltaCodec pins.

// DeltaWord is one changed 8-byte word of a virgin byte map: the word index
// (byte offset / 8) and the new word value in the loadWord layout
// (little-endian byte packing).
type DeltaWord struct {
	Index uint32
	Word  uint64
}

// VirginDelta is a sparse update to a virgin-shaped byte map of the given
// key-space size. Words are ordered by strictly ascending Index; no Word is
// all-0xFF (such a word would be an AND no-op and is rejected on decode).
type VirginDelta struct {
	// Size is the key space of the map the delta describes (the union's
	// Size), so appliers can reject a delta aimed at a different geometry.
	Size int
	// Words holds the changed words, ascending by Index.
	Words []DeltaWord
}

// Delta codec errors. ErrDeltaCorrupt wraps every integrity failure so
// callers can distinguish damage from I/O errors, mirroring the checkpoint
// codec's ErrCorrupt.
var (
	ErrDeltaCorrupt = errors.New("core: virgin delta corrupt")
	ErrDeltaVersion = errors.New("core: unsupported virgin delta version")
)

const (
	deltaMagic   = "BMVD"
	deltaVersion = 1
)

// DiffVirginBytes returns the delta that carries cur's state relative to
// prev: every 8-byte word where the two differ, with cur's value. prev may
// be nil, meaning the all-0xFF baseline (the delta then carries the whole
// discovered state — what a worker publishes on its first sync, and what a
// resumed worker republishes to re-establish its baseline). When prev is
// non-nil it must be the same length as cur. Ragged tails (length not a
// multiple of 8) are compared as if padded with 0xFF.
//
// For monotonic inputs — prev a snapshot of the same virgin map at an
// earlier time — no emitted word can be all-0xFF, so the result is always
// encodable. Size is set to len(cur).
func DiffVirginBytes(prev, cur []byte) VirginDelta {
	d := VirginDelta{Size: len(cur)}
	n := len(cur)
	i := 0
	for ; i+8 <= n; i += 8 {
		cw := loadWord(cur[i:])
		if prev != nil && loadWord(prev[i:]) == cw {
			continue
		}
		if prev == nil && cw == ^uint64(0) {
			continue
		}
		d.Words = append(d.Words, DeltaWord{Index: uint32(i >> 3), Word: cw})
	}
	if i < n {
		cw := padWord(cur[i:n])
		pw := ^uint64(0)
		if prev != nil {
			pw = padWord(prev[i:n])
		}
		if cw != pw {
			d.Words = append(d.Words, DeltaWord{Index: uint32(i >> 3), Word: cw})
		}
	}
	return d
}

// padWord loads up to 7 trailing bytes as a word padded with 0xFF, so tail
// comparisons and merges leave the padding untouched under AND.
func padWord(p []byte) uint64 {
	w := ^uint64(0)
	for j, b := range p {
		shift := uint(j) * 8
		w = w&^(uint64(0xFF)<<shift) | uint64(b)<<shift
	}
	return w
}

// Apply AND-merges the delta into dst, a virgin byte map of exactly
// d.Size bytes, and returns how many bytes transitioned from 0xFF
// (undiscovered) to below it — the newly discovered key count, matching the
// accounting of LockedVirginUnion. Applying the same delta
// twice is a no-op the second time.
func (d VirginDelta) Apply(dst []byte) (discovered int, err error) {
	if len(dst) != d.Size {
		return 0, fmt.Errorf("core: virgin delta for size %d applied to %d bytes", d.Size, len(dst))
	}
	nwords := (d.Size + 7) / 8
	for _, dw := range d.Words {
		if int(dw.Index) >= nwords {
			return discovered, fmt.Errorf("%w: word index %d beyond %d-byte map", ErrDeltaCorrupt, dw.Index, d.Size)
		}
		base := int(dw.Index) * 8
		end := base + 8
		if end > d.Size {
			end = d.Size
		}
		for pos := base; pos < end; pos++ {
			b := byte(dw.Word >> (uint(pos-base) * 8))
			old := dst[pos]
			merged := old & b
			if merged == old {
				continue
			}
			if old == 0xFF {
				discovered++
			}
			dst[pos] = merged
		}
	}
	return discovered, nil
}

// EncodeVirginDelta serializes a delta into its framed wire form:
//
//	"BMVD" | version | size (uvarint) | count (uvarint) |
//	count x (index gap uvarint, word uint64 LE) | CRC32-IEEE (LE, over all
//	preceding bytes)
//
// The first word's gap is its index; each subsequent gap is
// index - previousIndex - 1, so ascending order costs one byte per word in
// the common dense case. Words must already satisfy the canonical-form
// invariants (ascending indexes, no all-0xFF words) — DiffVirginBytes
// output always does.
func EncodeVirginDelta(d VirginDelta) []byte {
	buf := make([]byte, 0, len(deltaMagic)+1+10+10+len(d.Words)*9+4)
	buf = append(buf, deltaMagic...)
	buf = append(buf, deltaVersion)
	buf = binary.AppendUvarint(buf, uint64(d.Size))
	buf = binary.AppendUvarint(buf, uint64(len(d.Words)))
	prev := -1
	for _, dw := range d.Words {
		buf = binary.AppendUvarint(buf, uint64(int(dw.Index)-prev-1))
		buf = binary.LittleEndian.AppendUint64(buf, dw.Word)
		prev = int(dw.Index)
	}
	sum := crc32.ChecksumIEEE(buf)
	return binary.LittleEndian.AppendUint32(buf, sum)
}

// DecodeVirginDelta parses a framed delta, rejecting anything corrupt:
// bad magic or version, CRC mismatch, truncation or trailing bytes, an
// invalid map size, word indexes out of range or out of order, all-0xFF
// words. Accepted inputs round-trip bit for bit through EncodeVirginDelta
// (the codec fixed point, pinned by FuzzVirginDeltaCodec).
func DecodeVirginDelta(data []byte) (VirginDelta, error) {
	var d VirginDelta
	if len(data) < len(deltaMagic)+1+4 {
		return d, fmt.Errorf("%w: %d bytes is shorter than the envelope", ErrDeltaCorrupt, len(data))
	}
	if string(data[:len(deltaMagic)]) != deltaMagic {
		return d, fmt.Errorf("%w: bad magic", ErrDeltaCorrupt)
	}
	if v := data[len(deltaMagic)]; v != deltaVersion {
		return d, fmt.Errorf("%w: got %d, want %d", ErrDeltaVersion, v, deltaVersion)
	}
	body := data[: len(data)-4 : len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return d, fmt.Errorf("%w: CRC mismatch (got %#x, want %#x)", ErrDeltaCorrupt, got, want)
	}
	rest := body[len(deltaMagic)+1:]
	size, n := minimalUvarint(rest)
	if n <= 0 {
		return d, fmt.Errorf("%w: bad size varint", ErrDeltaCorrupt)
	}
	rest = rest[n:]
	if size > uint64(1<<31) || !validSize(int(size)) {
		return d, fmt.Errorf("%w: invalid map size %d", ErrDeltaCorrupt, size)
	}
	d.Size = int(size)
	nwords := (d.Size + 7) / 8
	count, n := minimalUvarint(rest)
	if n <= 0 {
		return d, fmt.Errorf("%w: bad word count varint", ErrDeltaCorrupt)
	}
	rest = rest[n:]
	if count > uint64(nwords) {
		return d, fmt.Errorf("%w: %d delta words for a %d-word map", ErrDeltaCorrupt, count, nwords)
	}
	if count > 0 {
		d.Words = make([]DeltaWord, 0, count)
	}
	prev := -1
	for i := uint64(0); i < count; i++ {
		gap, n := minimalUvarint(rest)
		if n <= 0 {
			return VirginDelta{}, fmt.Errorf("%w: bad word %d gap varint", ErrDeltaCorrupt, i)
		}
		rest = rest[n:]
		idx := uint64(prev+1) + gap
		if idx >= uint64(nwords) {
			return VirginDelta{}, fmt.Errorf("%w: word index %d beyond %d-word map", ErrDeltaCorrupt, idx, nwords)
		}
		if len(rest) < 8 {
			return VirginDelta{}, fmt.Errorf("%w: truncated word %d value", ErrDeltaCorrupt, i)
		}
		w := binary.LittleEndian.Uint64(rest)
		rest = rest[8:]
		if w == ^uint64(0) {
			return VirginDelta{}, fmt.Errorf("%w: all-0xFF word %d is a merge no-op", ErrDeltaCorrupt, i)
		}
		d.Words = append(d.Words, DeltaWord{Index: uint32(idx), Word: w})
		prev = int(idx)
	}
	if len(rest) != 0 {
		return VirginDelta{}, fmt.Errorf("%w: %d trailing bytes after payload", ErrDeltaCorrupt, len(rest))
	}
	return d, nil
}

// minimalUvarint is binary.Uvarint restricted to minimal encodings:
// redundant forms (0x80 0x00 for zero, and friends) are rejected with
// n = 0. binary.AppendUvarint only emits minimal forms, so requiring them
// on decode is what makes the wire form canonical and the codec a fixed
// point — without it a padded varint would decode fine but fail to
// round-trip bit for bit.
func minimalUvarint(data []byte) (uint64, int) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, 0
	}
	if n > 1 && v < 1<<uint(7*(n-1)) {
		return 0, 0
	}
	return v, n
}
