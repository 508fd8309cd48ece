// Package collision quantifies hash-collision severity in coverage bitmaps,
// implementing the paper's collision-rate metric (§II-B, Equation 1), the
// birthday-problem probability used in §III, and empirical measurement of
// collision rates from concrete key assignments.
package collision

import (
	"errors"
	"math"
)

// ErrBadArgs is returned when a hash-space size or draw count is not
// positive.
var ErrBadArgs = errors.New("collision: hash space and draw count must be positive")

// Rate evaluates Equation 1 of the paper: the expected fraction of n keys
// drawn uniformly from a hash space of size h that match a previously drawn
// key,
//
//	CollisionRate(H, n) = 1 - (H/n) * (1 - ((H-1)/H)^n).
//
// The expected number of distinct values among n uniform draws is
// H*(1-((H-1)/H)^n); every draw beyond the distinct ones is a collision.
func Rate(h, n int) (float64, error) {
	if h <= 0 || n <= 0 {
		return 0, ErrBadArgs
	}
	hf, nf := float64(h), float64(n)
	// ((H-1)/H)^n computed via Exp/Log1p for numerical stability when H is
	// large and n is small (direct Pow loses precision in (H-1)/H).
	p := math.Exp(nf * math.Log1p(-1/hf))
	rate := 1 - hf/nf*(1-p)
	// Clamp tiny negative values produced by floating-point cancellation.
	if rate < 0 {
		rate = 0
	}
	return rate, nil
}

// BirthdayProbability returns the probability that at least one collision
// occurs when n keys are drawn uniformly from a hash space of size h. This is
// the classic birthday bound the paper invokes to show a 64kB map reaches
// ~50% collision probability after only ~300 assigned IDs.
func BirthdayProbability(h, n int) (float64, error) {
	if h <= 0 || n <= 0 {
		return 0, ErrBadArgs
	}
	if n > h {
		return 1, nil // pigeonhole
	}
	// log P(no collision) = sum_{i=1}^{n-1} log(1 - i/H)
	logNone := 0.0
	hf := float64(h)
	for i := 1; i < n; i++ {
		logNone += math.Log1p(-float64(i) / hf)
	}
	return 1 - math.Exp(logNone), nil
}

// KeysForProbability returns the smallest number of uniform draws from a hash
// space of size h at which the collision probability reaches p (0 < p < 1).
func KeysForProbability(h int, p float64) (int, error) {
	if h <= 0 || p <= 0 || p >= 1 {
		return 0, ErrBadArgs
	}
	logNone := 0.0
	hf := float64(h)
	target := math.Log(1 - p)
	for n := 1; n <= h; n++ {
		logNone += math.Log1p(-float64(n-1) / hf)
		if logNone <= target {
			return n, nil
		}
	}
	return h + 1, nil
}

// Measure computes the empirical collision rate of a concrete key sequence
// using the paper's definition: a draw collides if its key matches any
// previously drawn key; the rate is collisions / draws. The example in §II-B
// ({4,2,5,3,2} -> 1/5) is reproduced by the tests.
func Measure(keys []uint32) float64 {
	if len(keys) == 0 {
		return 0
	}
	seen := make(map[uint32]struct{}, len(keys))
	collisions := 0
	for _, k := range keys {
		if _, ok := seen[k]; ok {
			collisions++
		} else {
			seen[k] = struct{}{}
		}
	}
	return float64(collisions) / float64(len(keys))
}

// Colliding generates an adversarial key sequence for a coverage map of the
// given hash-space size: n keys drawn from only `distinct` values, so every
// draw past the first sight of each value collides. distinct is clamped to
// [1, min(n, size)]. The values themselves concentrate on the map's boundary
// slots (0, size-1, and the power-of-two midpoints), the indices where masking
// and word-level kernel bugs live. The sequence is deterministic in seed via
// a splitmix64 walk, so fuzz targets replaying a corpus see identical keys.
func Colliding(size, n, distinct int, seed uint64) []uint32 {
	if size <= 0 || n <= 0 {
		return nil
	}
	if distinct < 1 {
		distinct = 1
	}
	if distinct > n {
		distinct = n
	}
	if distinct > size {
		distinct = size
	}
	vals := boundaryKeys(size, distinct, seed)
	out := make([]uint32, n)
	x := seed ^ 0x9e3779b97f4a7c15
	for i := range out {
		x = splitmix64(x)
		out[i] = vals[int(x%uint64(len(vals)))]
	}
	return out
}

// boundaryKeys returns `want` distinct keys < size biased toward the slots
// where map implementations break: 0, size-1, and the ±1 neighbourhoods of
// every power-of-two ≤ size. Remaining keys are filled from a deterministic
// pseudo-random walk over the full space.
func boundaryKeys(size, want int, seed uint64) []uint32 {
	if want > size {
		want = size
	}
	seen := make(map[uint32]struct{}, want)
	out := make([]uint32, 0, want)
	add := func(k int) {
		if k < 0 || k >= size || len(out) >= want {
			return
		}
		kk := uint32(k)
		if _, ok := seen[kk]; ok {
			return
		}
		seen[kk] = struct{}{}
		out = append(out, kk)
	}
	add(0)
	add(size - 1)
	for p := 1; p <= size; p <<= 1 {
		add(p - 1)
		add(p)
		add(p + 1)
		if p > size/2 {
			break
		}
	}
	x := seed
	for len(out) < want {
		x = splitmix64(x)
		add(int(x % uint64(size)))
	}
	return out
}

// splitmix64 is the SplitMix64 mixing function — a tiny, dependency-free
// deterministic generator good enough for adversarial key synthesis.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
