package core

// Scalar reference kernels: the straightforward byte-at-a-time definitions
// of classify, has_new_bits, the merged classify+compare, counting, scanning
// and the FNV-1a digest. The block kernels in kernels.go fall back to these
// for ragged tails and for the rare blocks that need per-byte work, and the
// differential fuzzer in kernels_test.go requires the block kernels to be
// byte-for-byte equivalent to these on arbitrary trace/virgin pairs. They
// are the semantic ground truth; any future kernel (SIMD, batched, whatever)
// must match them.

// classifyScalar converts exact hit counts to AFL bucket bits in place,
// one byte at a time.
func classifyScalar(p []byte) {
	for i, b := range p {
		if b != 0 {
			p[i] = classifyLookup[b]
		}
	}
}

// compareScalar applies the per-byte has_new_bits step to a classified span
// and folds the result into verdict, clearing discovered bits out of virgin.
// newEdges accumulates the number of virgin slots discovered for the first
// time (byte transitions from 0xFF), which is how Virgin maintains its
// discovered-edge count incrementally instead of re-walking the map.
func compareScalar(trace, virgin []byte, verdict Verdict, newEdges int) (Verdict, int) {
	for j, t := range trace {
		if t == 0 {
			continue
		}
		v := virgin[j]
		if t&v == 0 {
			continue
		}
		if v == 0xFF {
			verdict = VerdictNewEdges
			newEdges++
		} else if verdict < VerdictNewCounts {
			verdict = VerdictNewCounts
		}
		virgin[j] = v &^ t
	}
	return verdict, newEdges
}

// classifyCompareScalar classifies a span in place and folds its
// has_new_bits result into verdict, one byte at a time. newEdges accumulates
// first-time slot discoveries, as in compareScalar.
func classifyCompareScalar(trace, virgin []byte, verdict Verdict, newEdges int) (Verdict, int) {
	for j, b := range trace {
		if b == 0 {
			continue
		}
		t := classifyLookup[b]
		trace[j] = t
		v := virgin[j]
		if t&v == 0 {
			continue
		}
		if v == 0xFF {
			verdict = VerdictNewEdges
			newEdges++
		} else if verdict < VerdictNewCounts {
			verdict = VerdictNewCounts
		}
		virgin[j] = v &^ t
	}
	return verdict, newEdges
}

// skipZeroBlocksScalar is the byte-at-a-time skipZeroBlocks reference: from
// i in blockSize steps, the first full block with a non-zero byte, else the
// offset from which fewer than blockSize bytes remain.
func skipZeroBlocksScalar(p []byte, i int) int {
	for ; i+blockSize <= len(p); i += blockSize {
		for _, b := range p[i : i+blockSize] {
			if b != 0 {
				return i
			}
		}
	}
	return i
}

// hashScalar is the byte-at-a-time FNV-1a 64 reference digest.
func hashScalar(p []byte) uint64 {
	h := uint64(fnvOffset)
	for _, b := range p {
		h ^= uint64(b)
		h *= fnvPrime
	}
	return h
}

// appendTouchedScalar is the byte-at-a-time touched-index reference.
func appendTouchedScalar(dst []uint32, p []byte) []uint32 {
	for i, b := range p {
		if b != 0 {
			dst = append(dst, uint32(i))
		}
	}
	return dst
}

// countNonZeroScalar is the byte-at-a-time CountNonZero reference.
func countNonZeroScalar(p []byte) int {
	n := 0
	for _, b := range p {
		if b != 0 {
			n++
		}
	}
	return n
}

// DiffVirginBytesScalar is the byte-at-a-time DiffVirginBytes reference: it
// assembles every 8-byte word one byte at a time (missing prev = 0xFF
// baseline, ragged tails padded with 0xFF) and emits the word iff any byte
// differs. The differential tests require the word-level walk to produce an
// identical delta on arbitrary prev/cur pairs.
func DiffVirginBytesScalar(prev, cur []byte) VirginDelta {
	d := VirginDelta{Size: len(cur)}
	nwords := (len(cur) + 7) / 8
	for wi := 0; wi < nwords; wi++ {
		var cw uint64
		differ := false
		for j := 0; j < 8; j++ {
			pos := wi*8 + j
			cb, pb := byte(0xFF), byte(0xFF)
			if pos < len(cur) {
				cb = cur[pos]
				if prev != nil {
					pb = prev[pos]
				}
			}
			cw |= uint64(cb) << (uint(j) * 8)
			differ = differ || cb != pb
		}
		if differ {
			d.Words = append(d.Words, DeltaWord{Index: uint32(wi), Word: cw})
		}
	}
	return d
}

// lastNonZeroScalar is the byte-at-a-time backward-scan reference.
func lastNonZeroScalar(p []byte) int {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] != 0 {
			return i
		}
	}
	return -1
}
