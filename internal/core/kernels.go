package core

import "math/bits"

// Word-level map kernels. Every per-testcase map operation shares these
// traversals: load 8 hit counters as one little-endian word, decide the
// common case (all zero, or nothing new) from the word alone, and fall back
// to the retained scalar kernels (kernels_scalar.go) only for the rare words
// that need per-byte work. Both AFLMap and BigMap call the same kernels —
// AFLMap over its whole bitmap, BigMap over its used region — so the schemes
// cannot drift apart and the differential fuzzer in kernels_test.go pins
// word and scalar variants byte-for-byte against each other.

// classifyRegion converts exact hit counts to AFL bucket bits in place,
// skipping zero words and classifying non-zero words with two halfword
// lookups per load (classifyWord).
//
//bigmap:hotpath shared classify kernel
func classifyRegion(p []byte) {
	i := 0
	for ; i+8 <= len(p); i += 8 {
		w := loadWord(p[i:])
		if w == 0 {
			continue
		}
		storeWord(p[i:], classifyWord(w))
	}
	if i < len(p) {
		classifyScalar(p[i:])
	}
}

// compareRegion applies has_new_bits to an already classified trace span:
// discovered bucket bits are cleared out of virgin, the verdict reports
// whether any edge or count bucket was new, and newEdges counts the slots
// discovered for the first time (so callers can maintain the discovered
// count without re-walking the virgin map). Two word-level early outs cover
// the hot cases: an untouched span (trace word zero) and an already known
// span (no trace bit still virgin).
//
//bigmap:hotpath shared compare kernel
func compareRegion(trace, virgin []byte) (verdict Verdict, newEdges int) {
	i := 0
	for ; i+8 <= len(trace); i += 8 {
		tw := loadWord(trace[i:])
		if tw == 0 || tw&loadWord(virgin[i:]) == 0 {
			continue
		}
		verdict, newEdges = compareScalar(trace[i:i+8], virgin[i:i+8], verdict, newEdges)
	}
	if i < len(trace) {
		verdict, newEdges = compareScalar(trace[i:], virgin[i:], verdict, newEdges)
	}
	return verdict, newEdges
}

// classifyCompareRegion is the merged single-pass classify+compare (§IV-E):
// each non-zero word is classified and stored, then compared against virgin
// with the same word-level early out as compareRegion. The per-byte fallback
// receives the already classified span, so it only performs the compare step.
//
//bigmap:hotpath shared merged kernel
func classifyCompareRegion(trace, virgin []byte) (verdict Verdict, newEdges int) {
	i := 0
	for ; i+8 <= len(trace); i += 8 {
		w := loadWord(trace[i:])
		if w == 0 {
			continue
		}
		cw := classifyWord(w)
		storeWord(trace[i:], cw)
		if cw&loadWord(virgin[i:]) == 0 {
			continue
		}
		verdict, newEdges = compareScalar(trace[i:i+8], virgin[i:i+8], verdict, newEdges)
	}
	if i < len(trace) {
		verdict, newEdges = classifyCompareScalar(trace[i:], virgin[i:], verdict, newEdges)
	}
	return verdict, newEdges
}

// countNonZeroRegion counts non-zero hit counters, skipping zero words and
// popcounting the occupancy mask of non-zero words.
//
//bigmap:hotpath shared density kernel
func countNonZeroRegion(p []byte) int {
	n := 0
	i := 0
	for ; i+8 <= len(p); i += 8 {
		w := loadWord(p[i:])
		if w == 0 {
			continue
		}
		n += countNonZeroWord(w)
	}
	for ; i < len(p); i++ {
		if p[i] != 0 {
			n++
		}
	}
	return n
}

// countNonZeroWord counts the non-zero bytes of w: fold each byte's bits
// into its bit 0 (the folds never pull bit 0 from a neighbouring byte), mask
// to one occupancy bit per byte, popcount.
func countNonZeroWord(w uint64) int {
	w |= w >> 4
	w |= w >> 2
	w |= w >> 1
	return bits.OnesCount64(w & 0x0101010101010101)
}

// appendTouchedRegion appends the index of every non-zero hit counter in p
// to dst, skipping zero words.
//
//bigmap:hotpath shared touched-slot kernel
func appendTouchedRegion(dst []uint32, p []byte) []uint32 {
	i := 0
	for ; i+8 <= len(p); i += 8 {
		if loadWord(p[i:]) == 0 {
			continue
		}
		for j := i; j < i+8; j++ {
			if p[j] != 0 {
				dst = append(dst, uint32(j)) //bigmap:alloc-ok appends into the caller's reusable scratch, which reaches steady-state capacity after warm-up
			}
		}
	}
	for ; i < len(p); i++ {
		if p[i] != 0 {
			dst = append(dst, uint32(i)) //bigmap:alloc-ok appends into the caller's reusable scratch, which reaches steady-state capacity after warm-up
		}
	}
	return dst
}

// lastNonZero returns the index of the last non-zero byte of p, or -1 if p
// is all zero. The scan is backward and word-wise: one load rejects 8 zero
// slots at a time, and the byte walk only runs inside the first non-zero
// word found.
func lastNonZero(p []byte) int {
	i := len(p)
	for i%8 != 0 {
		if p[i-1] != 0 {
			return i - 1
		}
		i--
	}
	for i >= 8 {
		if loadWord(p[i-8:]) != 0 {
			for j := i - 1; ; j-- {
				if p[j] != 0 {
					return j
				}
			}
		}
		i -= 8
	}
	return -1
}
