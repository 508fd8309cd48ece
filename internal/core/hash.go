package core

// fnvOffset and fnvPrime are the FNV-1a 64-bit parameters. AFL hashes its
// trace bitmap with a 32-bit MurmurHash derivative; any fast, stable digest
// serves the same purpose (rapid path comparison), so we use FNV-1a 64,
// which needs no lookup tables and is trivially verifiable in tests. The
// byte loop is hashScalar (kernels_scalar.go); the maps call the
// block-skipping hashRegion (kernels.go), which computes the same digest
// because a zero byte's XOR is a no-op: n zero bytes multiply the state by
// fnvPrime^n mod 2^64. fnvPrime8 and fnvPrime32 are those powers for a zero
// word and a zero block, derived by repeated squaring so every product stays
// within the compiler's constant precision.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3

	fnvPrime2  = fnvPrime * fnvPrime % (1 << 64)
	fnvPrime4  = fnvPrime2 * fnvPrime2 % (1 << 64)
	fnvPrime8  = fnvPrime4 * fnvPrime4 % (1 << 64)
	fnvPrime16 = fnvPrime8 * fnvPrime8 % (1 << 64)
	fnvPrime32 = fnvPrime16 * fnvPrime16 % (1 << 64)
)

// loadWord reads 8 bytes of a bitmap as one little-endian word so the map
// operations can skip zero regions 8 slots at a time, as AFL does with its
// u64* traversals. p must have at least 8 bytes.
func loadWord(p []byte) uint64 {
	_ = p[7] // bounds-check hint
	return uint64(p[0]) | uint64(p[1])<<8 | uint64(p[2])<<16 | uint64(p[3])<<24 |
		uint64(p[4])<<32 | uint64(p[5])<<40 | uint64(p[6])<<48 | uint64(p[7])<<56
}

// storeWord writes w back as 8 little-endian bytes, the inverse of loadWord.
// p must have at least 8 bytes.
func storeWord(p []byte, w uint64) {
	_ = p[7] // bounds-check hint
	p[0] = byte(w)
	p[1] = byte(w >> 8)
	p[2] = byte(w >> 16)
	p[3] = byte(w >> 24)
	p[4] = byte(w >> 32)
	p[5] = byte(w >> 40)
	p[6] = byte(w >> 48)
	p[7] = byte(w >> 56)
}

// hashCombine mixes v into h, used by the N-gram and context metrics to fold
// block IDs together. It is a splitmix64-style finalizer step: cheap and
// well distributed.
func hashCombine(h, v uint64) uint64 {
	h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}
