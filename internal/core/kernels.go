package core

import "math/bits"

// Block-skipping map kernels. Every per-testcase map operation shares these
// traversals: read the region one 32-byte block at a time as four
// little-endian words, reject an all-zero block (32 untouched counters) with
// one OR-and-test, and do word or byte work only inside non-zero blocks. A
// zero block hands the run of zero blocks after it to skipZeroBlocks, whose
// loop does nothing else, so a sparse region is read at memory speed while
// a dense one never leaves the kernel's own loop. Ragged tails run
// word-wise, then through the retained scalar kernels (kernels_scalar.go),
// which also take the rare blocks that need per-byte work. Both AFLMap and
// BigMap call the same kernels — AFLMap over its whole bitmap, BigMap over
// its used region — so the schemes cannot drift apart and the differential
// fuzzer in kernels_test.go pins every kernel byte-for-byte against its
// scalar reference.
//
// A block is taken as a *[blockSize]byte, so one bounds check covers its
// four loads, and the loads are written out where they are used: loadWord
// on a constant-length array slice inlines to a single 8-byte move, whereas
// a block-load helper returning four words does not inline and costs about
// as much as the skip saves.

// blockSize is the kernels' skip granularity: four words.
const blockSize = 32

// skipZeroBlocks returns the offset of the first full block at or after i
// (stepping by blockSize) that holds a non-zero byte, or, if there is none,
// the offset from which fewer than blockSize bytes remain.
func skipZeroBlocks(p []byte, i int) int {
	for ; i+blockSize <= len(p); i += blockSize {
		b := (*[blockSize]byte)(p[i : i+blockSize])
		if loadWord(b[0:])|loadWord(b[8:])|loadWord(b[16:])|loadWord(b[24:]) != 0 {
			return i
		}
	}
	return i
}

// classifyRegion converts exact hit counts to AFL bucket bits in place.
// A non-zero block is classified as four words, four halfword lookups per
// word (classifyWord maps a zero word to zero, so its zero words need no
// branch).
//
//bigmap:hotpath shared classify kernel
func classifyRegion(p []byte) {
	i := 0
	for i+blockSize <= len(p) {
		b := (*[blockSize]byte)(p[i : i+blockSize])
		w0, w1, w2, w3 := loadWord(b[0:]), loadWord(b[8:]), loadWord(b[16:]), loadWord(b[24:])
		if w0|w1|w2|w3 == 0 {
			i = skipZeroBlocks(p, i+blockSize)
			continue
		}
		storeWord(b[0:], classifyWord(w0))
		storeWord(b[8:], classifyWord(w1))
		storeWord(b[16:], classifyWord(w2))
		storeWord(b[24:], classifyWord(w3))
		i += blockSize
	}
	for ; i+8 <= len(p); i += 8 {
		if w := loadWord(p[i:]); w != 0 {
			storeWord(p[i:], classifyWord(w))
		}
	}
	if i < len(p) {
		classifyScalar(p[i:])
	}
}

// compareRegion applies has_new_bits to an already classified trace span:
// discovered bucket bits are cleared out of virgin, the verdict reports
// whether any edge or count bucket was new, and newEdges counts the slots
// discovered for the first time (so callers can maintain the discovered
// count without re-walking the virgin map). Two block-level early outs cover
// the hot cases: an untouched block (trace words zero) and an already known
// block (no trace bit still virgin). Only a block with new bits goes to the
// scalar compare.
//
//bigmap:hotpath shared compare kernel
func compareRegion(trace, virgin []byte) (verdict Verdict, newEdges int) {
	virgin = virgin[:len(trace)]
	i := 0
	for i+blockSize <= len(trace) {
		t := (*[blockSize]byte)(trace[i : i+blockSize])
		t0, t1, t2, t3 := loadWord(t[0:]), loadWord(t[8:]), loadWord(t[16:]), loadWord(t[24:])
		if t0|t1|t2|t3 == 0 {
			i = skipZeroBlocks(trace, i+blockSize)
			continue
		}
		v := (*[blockSize]byte)(virgin[i : i+blockSize])
		if t0&loadWord(v[0:])|t1&loadWord(v[8:])|t2&loadWord(v[16:])|t3&loadWord(v[24:]) != 0 {
			verdict, newEdges = compareScalar(t[:], v[:], verdict, newEdges)
		}
		i += blockSize
	}
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
// each non-zero block is classified and stored, then compared against virgin
// with the same block-level early out as compareRegion. The per-byte
// fallback receives the already classified block, so it only performs the
// compare step.
//
//bigmap:hotpath shared merged kernel
func classifyCompareRegion(trace, virgin []byte) (verdict Verdict, newEdges int) {
	virgin = virgin[:len(trace)]
	i := 0
	for i+blockSize <= len(trace) {
		t := (*[blockSize]byte)(trace[i : i+blockSize])
		w0, w1, w2, w3 := loadWord(t[0:]), loadWord(t[8:]), loadWord(t[16:]), loadWord(t[24:])
		if w0|w1|w2|w3 == 0 {
			i = skipZeroBlocks(trace, i+blockSize)
			continue
		}
		c0, c1, c2, c3 := classifyWord(w0), classifyWord(w1), classifyWord(w2), classifyWord(w3)
		storeWord(t[0:], c0)
		storeWord(t[8:], c1)
		storeWord(t[16:], c2)
		storeWord(t[24:], c3)
		v := (*[blockSize]byte)(virgin[i : i+blockSize])
		if c0&loadWord(v[0:])|c1&loadWord(v[8:])|c2&loadWord(v[16:])|c3&loadWord(v[24:]) != 0 {
			verdict, newEdges = compareScalar(t[:], v[:], verdict, newEdges)
		}
		i += blockSize
	}
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

// countNonZeroRegion counts non-zero hit counters, skipping zero blocks and
// popcounting the occupancy masks of a non-zero block's words.
//
//bigmap:hotpath shared density kernel
func countNonZeroRegion(p []byte) int {
	n := 0
	i := 0
	for i+blockSize <= len(p) {
		b := (*[blockSize]byte)(p[i : i+blockSize])
		w0, w1, w2, w3 := loadWord(b[0:]), loadWord(b[8:]), loadWord(b[16:]), loadWord(b[24:])
		if w0|w1|w2|w3 == 0 {
			i = skipZeroBlocks(p, i+blockSize)
			continue
		}
		n += bits.OnesCount64(occupancy(w0)) + bits.OnesCount64(occupancy(w1)) +
			bits.OnesCount64(occupancy(w2)) + bits.OnesCount64(occupancy(w3))
		i += blockSize
	}
	for ; i+8 <= len(p); i += 8 {
		n += bits.OnesCount64(occupancy(loadWord(p[i:])))
	}
	for ; i < len(p); i++ {
		if p[i] != 0 {
			n++
		}
	}
	return n
}

// occupancy returns one bit per non-zero byte of w, at that byte's bit 0:
// each byte's bits are folded into its bit 0 (the folds never pull bit 0
// from a neighbouring byte), then masked.
func occupancy(w uint64) uint64 {
	w |= w >> 4
	w |= w >> 2
	w |= w >> 1
	return w & 0x0101010101010101
}

// appendTouchedRegion appends the index of every non-zero hit counter in p
// to dst, skipping zero blocks and walking the occupancy mask of each
// non-zero word.
//
//bigmap:hotpath shared touched-slot kernel
func appendTouchedRegion(dst []uint32, p []byte) []uint32 {
	i := 0
	for i+blockSize <= len(p) {
		b := (*[blockSize]byte)(p[i : i+blockSize])
		w0, w1, w2, w3 := loadWord(b[0:]), loadWord(b[8:]), loadWord(b[16:]), loadWord(b[24:])
		if w0|w1|w2|w3 == 0 {
			i = skipZeroBlocks(p, i+blockSize)
			continue
		}
		dst = appendOccupied(dst, i, w0)
		dst = appendOccupied(dst, i+8, w1)
		dst = appendOccupied(dst, i+16, w2)
		dst = appendOccupied(dst, i+24, w3)
		i += blockSize
	}
	for ; i+8 <= len(p); i += 8 {
		dst = appendOccupied(dst, i, loadWord(p[i:]))
	}
	for ; i < len(p); i++ {
		if p[i] != 0 {
			dst = append(dst, uint32(i)) //bigmap:alloc-ok appends into the caller's reusable scratch, which reaches steady-state capacity after warm-up
		}
	}
	return dst
}

// appendOccupied appends base+j for every non-zero byte j of w, in
// ascending order.
func appendOccupied(dst []uint32, base int, w uint64) []uint32 {
	for m := occupancy(w); m != 0; m &= m - 1 {
		dst = append(dst, uint32(base+bits.TrailingZeros64(m)>>3)) //bigmap:alloc-ok appends into the caller's reusable scratch, which reaches steady-state capacity after warm-up
	}
	return dst
}

// hashRegion returns the FNV-1a 64-bit digest of p, bit-identical to the
// byte loop hashScalar. A zero byte's XOR is a no-op, so a run of n zero
// bytes multiplies the state by fnvPrime^n mod 2^64: a run of k zero blocks
// is one multiply by fnvPrime32^k (zeroBlocksFactor), and only non-zero
// blocks take byte steps (hashWord).
//
//bigmap:hotpath shared trace digest kernel
func hashRegion(p []byte) uint64 {
	h := uint64(fnvOffset)
	i := 0
	for i+blockSize <= len(p) {
		b := (*[blockSize]byte)(p[i : i+blockSize])
		w0, w1, w2, w3 := loadWord(b[0:]), loadWord(b[8:]), loadWord(b[16:]), loadWord(b[24:])
		if w0|w1|w2|w3 == 0 {
			next := skipZeroBlocks(p, i+blockSize)
			h *= zeroBlocksFactor((next - i) / blockSize)
			i = next
			continue
		}
		h = hashWord(hashWord(hashWord(hashWord(h, w0), w1), w2), w3)
		i += blockSize
	}
	for ; i+8 <= len(p); i += 8 {
		h = hashWord(h, loadWord(p[i:]))
	}
	for ; i < len(p); i++ {
		h = (h ^ uint64(p[i])) * fnvPrime
	}
	return h
}

// zeroBlocksFactor returns fnvPrime32^k mod 2^64, the FNV-1a state factor of
// k zero blocks, by square-and-multiply.
func zeroBlocksFactor(k int) uint64 {
	f, sq := uint64(1), uint64(fnvPrime32)
	for ; k > 0; k >>= 1 {
		if k&1 != 0 {
			f *= sq
		}
		sq *= sq
	}
	return f
}

// hashWord folds the eight bytes of w into h, lowest byte first: exactly
// eight FNV-1a byte steps, of which a zero word needs only the multiply.
func hashWord(h, w uint64) uint64 {
	if w == 0 {
		return h * fnvPrime8
	}
	for k := 0; k < 8; k++ {
		h = (h ^ w&0xFF) * fnvPrime
		w >>= 8
	}
	return h
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
