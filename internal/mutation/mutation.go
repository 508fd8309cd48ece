// Package mutation implements AFL's mutation engine: the deterministic
// stages (bit flips, byte flips, arithmetic, interesting values, dictionary)
// followed by stacked random "havoc" mutations and corpus splicing
// (paper §II-A1). The engine is agnostic to everything else in the fuzzer —
// the paper's approach is orthogonal to seed scheduling and mutation, and so
// is this package.
package mutation

import (
	"bytes"
	"slices"

	"github.com/bigmap/bigmap/internal/rng"
)

// AFL's interesting value tables.
var (
	interesting8  = []int8{-128, -1, 0, 1, 16, 32, 64, 100, 127}
	interesting16 = []int16{-32768, -129, 128, 255, 256, 512, 1000, 1024, 4096, 32767}
	interesting32 = []int32{-2147483648, -100663046, -32769, 32768, 65535, 65536, 100663045, 2147483647}
)

// Limits mirroring AFL's config.h.
const (
	arithMax      = 35 // maximum arithmetic delta
	havocStackPow = 7  // stacked havoc operations: 2^(1+rng(havocStackPow))
	havocBlkSmall = 32 // small block size for block ops
	maxInputLen   = 1 << 20
	minSpliceLen  = 4
)

// Mutator generates test cases from seed inputs. Not safe for concurrent
// use; each fuzzing instance owns one.
type Mutator struct {
	src     *rng.Source
	dict    [][]byte
	buf     []byte              // Havoc's and Deterministic's result
	spliced []byte              // Splice's result, kept apart so Havoc(Splice(a, b)) can copy it into buf
	block   [havocBlkSmall]byte // the clone/insert operator's block
}

// New creates a mutator drawing randomness from src. dict is an optional
// dictionary of tokens for the dictionary stages (may be nil).
func New(src *rng.Source, dict [][]byte) *Mutator {
	return &Mutator{src: src, dict: dict}
}

// Source exposes the mutator's RNG so checkpointing can capture and restore
// its exact stream position.
func (m *Mutator) Source() *rng.Source { return m.src }

// Deterministic enumerates AFL's deterministic mutations of base, invoking
// fn for each candidate. The candidate buffer is reused between calls; fn
// must copy it if it needs to keep it. Enumeration stops early if fn returns
// false. The number of candidates is O(len(base) * (8 + 2*arithMax*3 + ...)),
// tens of thousands for a kilobyte input, which is why 24-hour campaigns
// usually skip this stage (§II-A1) — but it is fully implemented, as master
// instances in parallel mode run it (§V-D).
func (m *Mutator) Deterministic(base []byte, fn func([]byte) bool) {
	n := len(base)
	if n == 0 {
		return
	}
	buf := m.scratch(n)
	copy(buf, base)
	restore := func() { copy(buf, base) }

	// Stage: bitflip 1/1, 2/1, 4/1.
	for _, width := range []int{1, 2, 4} {
		for bit := 0; bit+width <= n*8; bit++ {
			for w := 0; w < width; w++ {
				buf[(bit+w)>>3] ^= 1 << uint((bit+w)&7)
			}
			if !fn(buf) {
				return
			}
			restore()
		}
	}

	// Stage: byteflip 8/8, 16/8, 32/8.
	for _, width := range []int{1, 2, 4} {
		for i := 0; i+width <= n; i++ {
			for w := 0; w < width; w++ {
				buf[i+w] ^= 0xFF
			}
			if !fn(buf) {
				return
			}
			restore()
		}
	}

	// Stage: arith 8.
	for i := 0; i < n; i++ {
		orig := buf[i]
		for d := 1; d <= arithMax; d++ {
			buf[i] = orig + byte(d)
			if !fn(buf) {
				return
			}
			buf[i] = orig - byte(d)
			if !fn(buf) {
				return
			}
			buf[i] = orig
		}
	}

	// Stage: arith 16 and 32, little and big endian.
	if !m.arithWide(buf, base, 2, fn) || !m.arithWide(buf, base, 4, fn) {
		return
	}

	// Stage: interesting 8. Writes that would not change the byte are
	// skipped, as AFL does.
	for i := 0; i < n; i++ {
		orig := buf[i]
		for _, v := range interesting8 {
			if byte(v) == orig {
				continue
			}
			buf[i] = byte(v)
			if !fn(buf) {
				return
			}
		}
		buf[i] = orig
	}

	// Stage: interesting 16 and 32, both endiannesses.
	if !m.interestingWide(buf, base, fn) {
		return
	}

	// Stage: dictionary overwrite.
	for _, tok := range m.dict {
		if len(tok) == 0 || len(tok) > n {
			continue
		}
		for i := 0; i+len(tok) <= n; i++ {
			if bytes.Equal(base[i:i+len(tok)], tok) {
				continue
			}
			copy(buf[i:], tok)
			if !fn(buf) {
				return
			}
			restore()
		}
	}
}

// arithWide runs the 16- or 32-bit arithmetic stage.
func (m *Mutator) arithWide(buf, base []byte, width int, fn func([]byte) bool) bool {
	n := len(base)
	for i := 0; i+width <= n; i++ {
		for d := 1; d <= arithMax; d++ {
			for _, sign := range []int64{1, -1} {
				for _, be := range []bool{false, true} {
					v := loadUint(base[i:], width, be)
					v = uint64(int64(v) + sign*int64(d))
					storeUint(buf[i:], v, width, be)
					if !fn(buf) {
						return false
					}
					copy(buf[i:i+width], base[i:i+width])
				}
			}
		}
	}
	return true
}

// interestingWide runs the 16- and 32-bit interesting-value stages.
func (m *Mutator) interestingWide(buf, base []byte, fn func([]byte) bool) bool {
	n := len(base)
	for i := 0; i+2 <= n; i++ {
		for _, v := range interesting16 {
			for _, be := range []bool{false, true} {
				if loadUint(base[i:], 2, be) == uint64(uint16(v)) {
					continue
				}
				storeUint(buf[i:], uint64(uint16(v)), 2, be)
				if !fn(buf) {
					return false
				}
				copy(buf[i:i+2], base[i:i+2])
			}
		}
	}
	for i := 0; i+4 <= n; i++ {
		for _, v := range interesting32 {
			for _, be := range []bool{false, true} {
				if loadUint(base[i:], 4, be) == uint64(uint32(v)) {
					continue
				}
				storeUint(buf[i:], uint64(uint32(v)), 4, be)
				if !fn(buf) {
					return false
				}
				copy(buf[i:i+4], base[i:i+4])
			}
		}
	}
	return true
}

// DeterministicCount returns an upper bound on the number of candidates
// Deterministic will produce for an input of length n (with the current
// dictionary), for stage accounting. The actual count is lower when the
// input already contains interesting values or dictionary tokens, whose
// no-op writes are skipped.
func (m *Mutator) DeterministicCount(n int) int {
	if n == 0 {
		return 0
	}
	count := 0
	for _, w := range []int{1, 2, 4} { // bitflips
		count += n*8 - w + 1
	}
	for _, w := range []int{1, 2, 4} { // byteflips
		if n >= w {
			count += n - w + 1
		}
	}
	count += n * arithMax * 2 // arith8
	if n >= 2 {
		count += (n - 1) * arithMax * 4 // arith16 le/be +/-
	}
	if n >= 4 {
		count += (n - 3) * arithMax * 4 // arith32
	}
	count += n * len(interesting8)
	if n >= 2 {
		count += (n - 1) * len(interesting16) * 2
	}
	if n >= 4 {
		count += (n - 3) * len(interesting32) * 2
	}
	for _, tok := range m.dict {
		if len(tok) > 0 && len(tok) <= n {
			count += n - len(tok) + 1
		}
	}
	return count
}

// numHavocOps is the number of havoc operator kinds in Havoc's switch.
const numHavocOps = 15

// Havoc produces one stacked-random mutant of base. The result buffer is
// owned by the mutator and reused by the next call; once it has grown to the
// campaign's input sizes, Havoc does not allocate.
//
//bigmap:hotpath the havoc and splice stages call it once per execution
func (m *Mutator) Havoc(base []byte) []byte {
	src := m.src
	buf := append(m.buf[:0], base...) //bigmap:alloc-ok amortized growth: m.buf keeps the largest capacity across calls

	stack := 1 << (1 + src.Intn(havocStackPow))
	for s := 0; s < stack; s++ {
		if len(buf) == 0 {
			buf = append(buf, byte(src.Uint32())) //bigmap:alloc-ok amortized growth of the mutator-owned result buffer
			continue
		}
		switch src.Intn(numHavocOps) {
		case 0: // flip a random bit
			bit := src.Intn(len(buf) * 8)
			buf[bit>>3] ^= 1 << uint(bit&7)
		case 1: // interesting byte
			buf[src.Intn(len(buf))] = byte(interesting8[src.Intn(len(interesting8))])
		case 2: // interesting word
			if len(buf) >= 2 {
				i := src.Intn(len(buf) - 1)
				storeUint(buf[i:], uint64(uint16(interesting16[src.Intn(len(interesting16))])), 2, src.Bool())
			}
		case 3: // interesting dword
			if len(buf) >= 4 {
				i := src.Intn(len(buf) - 3)
				storeUint(buf[i:], uint64(uint32(interesting32[src.Intn(len(interesting32))])), 4, src.Bool())
			}
		case 4: // random add/sub byte
			i := src.Intn(len(buf))
			buf[i] += byte(1 + src.Intn(arithMax))
		case 5:
			i := src.Intn(len(buf))
			buf[i] -= byte(1 + src.Intn(arithMax))
		case 6: // random add/sub word
			if len(buf) >= 2 {
				i := src.Intn(len(buf) - 1)
				be := src.Bool()
				v := loadUint(buf[i:], 2, be)
				if src.Bool() {
					v += uint64(1 + src.Intn(arithMax))
				} else {
					v -= uint64(1 + src.Intn(arithMax))
				}
				storeUint(buf[i:], v, 2, be)
			}
		case 7: // random add/sub dword
			if len(buf) >= 4 {
				i := src.Intn(len(buf) - 3)
				be := src.Bool()
				v := loadUint(buf[i:], 4, be)
				if src.Bool() {
					v += uint64(1 + src.Intn(arithMax))
				} else {
					v -= uint64(1 + src.Intn(arithMax))
				}
				storeUint(buf[i:], v, 4, be)
			}
		case 8: // set random byte to random value (XOR with 1..255 so it changes)
			i := src.Intn(len(buf))
			buf[i] ^= byte(1 + src.Intn(255))
		case 9: // delete block
			if len(buf) > 2 {
				dl := m.blockLen(len(buf) - 1)
				from := src.Intn(len(buf) - dl + 1)
				buf = slices.Delete(buf, from, from+dl)
			}
		case 10: // clone block (75%) or insert constant block (25%)
			if len(buf)+havocBlkSmall < maxInputLen {
				cl := m.blockLen(len(buf))
				to := src.Intn(len(buf) + 1)
				block := m.block[:cl]
				if src.Intn(4) != 0 {
					from := src.Intn(len(buf) - cl + 1)
					copy(block, buf[from:from+cl])
				} else {
					fill := byte(src.Uint32())
					for i := range block {
						block[i] = fill
					}
				}
				buf = slices.Insert(buf, to, block...) //bigmap:alloc-ok amortized growth of the mutator-owned result buffer
			}
		case 11: // overwrite block with copy (75%) or constant (25%)
			if len(buf) >= 2 {
				cl := m.blockLen(len(buf) - 1)
				to := src.Intn(len(buf) - cl + 1)
				if src.Intn(4) != 0 {
					from := src.Intn(len(buf) - cl + 1)
					copy(buf[to:to+cl], buf[from:from+cl])
				} else {
					fill := byte(src.Uint32())
					for i := to; i < to+cl; i++ {
						buf[i] = fill
					}
				}
			}
		case 12, 13: // dictionary overwrite / insert
			if len(m.dict) > 0 {
				tok := m.dict[src.Intn(len(m.dict))]
				if len(tok) == 0 {
					break
				}
				if src.Bool() && len(tok) <= len(buf) {
					i := src.Intn(len(buf) - len(tok) + 1)
					copy(buf[i:], tok)
				} else if len(buf)+len(tok) < maxInputLen {
					i := src.Intn(len(buf) + 1)
					buf = slices.Insert(buf, i, tok...) //bigmap:alloc-ok amortized growth of the mutator-owned result buffer
				}
			}
		case 14: // flip random byte completely
			i := src.Intn(len(buf))
			buf[i] = ^buf[i]
		}
	}
	m.buf = buf
	return buf
}

// blockLen picks an AFL-style block length in [1, limit].
func (m *Mutator) blockLen(limit int) int {
	if limit < 1 {
		return 1
	}
	upper := havocBlkSmall
	if upper > limit {
		upper = limit
	}
	return 1 + m.src.Intn(upper)
}

// Splice combines two corpus entries: it locates the first and last
// differing byte, picks a split point between them, and joins a's head with
// b's tail, then typically havocs the result. Returns nil if the inputs are
// too similar or too short to splice, matching AFL's retry behaviour. The
// result buffer is owned by the mutator and reused by the next Splice call
// (Havoc copies its base, so Havoc(Splice(a, b)) is safe).
//
//bigmap:hotpath the splice stage calls it once per execution
func (m *Mutator) Splice(a, b []byte) []byte {
	if len(a) < minSpliceLen || len(b) < minSpliceLen {
		return nil
	}
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	first, last := -1, -1
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first < 0 || last <= first+1 {
		return nil
	}
	split := first + 1 + m.src.Intn(last-first-1)
	m.spliced = append(append(m.spliced[:0], a[:split]...), b[split:]...) //bigmap:alloc-ok amortized growth of the mutator-owned result buffer
	return m.spliced
}

// scratch returns a reusable buffer of at least n bytes.
func (m *Mutator) scratch(n int) []byte {
	if cap(m.buf) < n {
		m.buf = make([]byte, n, n*2+64)
	}
	m.buf = m.buf[:n]
	return m.buf
}

func loadUint(p []byte, width int, bigEndian bool) uint64 {
	var v uint64
	if bigEndian {
		for i := 0; i < width; i++ {
			v = v<<8 | uint64(p[i])
		}
	} else {
		for i := width - 1; i >= 0; i-- {
			v = v<<8 | uint64(p[i])
		}
	}
	return v
}

func storeUint(p []byte, v uint64, width int, bigEndian bool) {
	if bigEndian {
		for i := width - 1; i >= 0; i-- {
			p[i] = byte(v)
			v >>= 8
		}
	} else {
		for i := 0; i < width; i++ {
			p[i] = byte(v)
			v >>= 8
		}
	}
}
