package core

import (
	"fmt"
	"testing"
)

// Kernel benchmarks: scalar reference vs block kernel on the exact region
// shapes the fuzzer produces. The "bigmap" cases run over a BigMap used
// region (dense slots, the Fig. 3 load of 4096 discovered keys on a 2M or 8M
// hash space); the "afl" cases run the same load scattered over the full
// flat 8M bitmap, one touched slot every 2 KiB. The sub-benchmark names are
// <scalar|word>/<scheme>/<size>; "word" is the kernel the maps call. Run
// them with `go test -run '^$' -bench Kernel -benchmem ./internal/core/`
// (part of `make bench`); DESIGN §8 has the current figures.

const benchKernelLoad = 4096

// benchRegion is one kernel input: a map carrying the Fig. 3 load, its
// traversed region, the prefix its Hash digests, and a virgin map that has
// already absorbed the trace — the steady state where almost every compare
// finds nothing new. The counts are raw (all 1).
type benchRegion struct {
	name   string
	m      Map
	trace  []byte
	hashed []byte
	virgin []byte
}

// benchRegions builds the bigmap/2M, bigmap/8M and afl/8M regions.
func benchRegions(b *testing.B) []benchRegion {
	b.Helper()
	var out []benchRegion
	for _, c := range []struct {
		scheme string
		size   int
	}{{"bigmap", MapSize2M}, {"bigmap", MapSize8M}, {"afl", MapSize8M}} {
		m, err := newSchemeMap(c.scheme, c.size)
		if err != nil {
			b.Fatal(err)
		}
		step := uint32(c.size / benchKernelLoad)
		for i := 0; i < benchKernelLoad; i++ {
			m.Add(uint32(i) * step)
		}
		virgin := m.NewVirgin()
		m.ClassifyAndCompare(virgin)
		// Rebuild raw counts: classification replaced them in place.
		m.Reset()
		for i := 0; i < benchKernelLoad; i++ {
			m.Add(uint32(i) * step)
		}
		r := benchRegion{name: c.scheme + "/" + benchSizeLabel(c.size), m: m, virgin: virgin.bits}
		switch m := m.(type) {
		case *BigMap:
			r.trace = m.trace()
			r.hashed = r.trace[:lastNonZeroScalar(r.trace)+1]
		case *AFLMap:
			r.trace, r.hashed = m.bits, m.bits
		}
		out = append(out, r)
	}
	return out
}

func BenchmarkClassifyKernel(b *testing.B) {
	for _, r := range benchRegions(b) {
		b.Run("scalar/"+r.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				classifyScalar(r.trace)
			}
		})
		b.Run("word/"+r.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				classifyRegion(r.trace)
			}
		})
	}
}

func BenchmarkCompareKernel(b *testing.B) {
	for _, r := range benchRegions(b) {
		classifyRegion(r.trace)
		b.Run("scalar/"+r.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if v, _ := compareScalar(r.trace, r.virgin, VerdictNone, 0); v != VerdictNone {
					b.Fatal("steady-state compare found new bits")
				}
			}
		})
		b.Run("word/"+r.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if v, _ := compareRegion(r.trace, r.virgin); v != VerdictNone {
					b.Fatal("steady-state compare found new bits")
				}
			}
		})
	}
}

func BenchmarkClassifyCompareKernel(b *testing.B) {
	for _, r := range benchRegions(b) {
		b.Run("scalar/"+r.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				classifyCompareScalar(r.trace, r.virgin, VerdictNone, 0)
			}
		})
		b.Run("word/"+r.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				classifyCompareRegion(r.trace, r.virgin)
			}
		})
	}
}

// BenchmarkHashKernel isolates the §IV-D digest. The "word" cases time the
// map's own Hash: for BigMap the high-water mark plus the backward scan bound
// the work to the trace footprint; for AFLMap it digests the whole bitmap.
func BenchmarkHashKernel(b *testing.B) {
	for _, r := range benchRegions(b) {
		b.Run("scalar/"+r.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hashSink ^= hashScalar(r.hashed)
			}
		})
		b.Run("word/"+r.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hashSink ^= r.m.Hash()
			}
		})
	}
}

// hashSink keeps the inlined scalar digest from being eliminated as dead
// code.
var hashSink uint64

// BenchmarkAddBatchKernel compares per-edge virtual updates against one
// batched flush for the same 4096-edge trace.
func BenchmarkAddBatchKernel(b *testing.B) {
	for _, scheme := range []string{"afl", "bigmap"} {
		m, err := newSchemeMap(scheme, MapSize8M)
		if err != nil {
			b.Fatal(err)
		}
		keys := make([]uint32, benchKernelLoad)
		step := uint32(MapSize8M / benchKernelLoad)
		for i := range keys {
			keys[i] = uint32(i) * step
		}
		m.AddBatch(keys) // assign slots up front; counters saturate, so no reset needed
		b.Run("add/"+scheme+"/8M", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, k := range keys {
					m.Add(k)
				}
			}
		})
		b.Run("addbatch/"+scheme+"/8M", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.AddBatch(keys)
			}
		})
	}
}

func benchSizeLabel(size int) string {
	if size >= 1<<20 {
		return fmt.Sprintf("%dM", size>>20)
	}
	return fmt.Sprintf("%dk", size>>10)
}
