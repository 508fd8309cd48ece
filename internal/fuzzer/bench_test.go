package fuzzer

import (
	"runtime"
	"testing"

	"github.com/bigmap/bigmap/internal/core"
)

// BenchmarkStep measures whole fuzz rounds on the benchmark's bigmap-steady
// shape (libpng @ 0.05, BigMap 8M), warmed up until its queue is past the
// seed corpus: havoc generation, execution, classify+compare and splice
// together. One op is one Step; ns/exec and allocs/exec normalize by the
// executions the rounds ran.
func BenchmarkStep(b *testing.B) {
	f := newProfileFuzzer(b, profileTarget(b, "libpng", 0.05),
		Config{Scheme: SchemeBigMap, MapSize: core.MapSize8M, Seed: 1})
	if err := f.RunExecs(50000); err != nil {
		b.Fatal(err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, execs := ms.Mallocs, f.Execs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	n := float64(f.Execs() - execs)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/exec")
	b.ReportMetric(float64(ms.Mallocs-mallocs)/n, "allocs/exec")
}
