package fuzzer

import (
	"runtime"
	"testing"

	"github.com/bigmap/bigmap/internal/core"
	"github.com/bigmap/bigmap/internal/telemetry"
)

// BenchmarkStep measures whole fuzz rounds on the benchmark's bigmap-steady
// shape (libpng @ 0.05, BigMap 8M), warmed up until its queue is past the
// seed corpus: havoc generation, execution, classify+compare and splice
// together. One op is one Step; ns/exec and allocs/exec normalize by the
// executions the rounds ran. The telemetry=on half records every timing
// histogram the fuzzer keeps; the pair prices telemetry per exec.
func BenchmarkStep(b *testing.B) {
	for _, mode := range []string{"off", "on"} {
		b.Run("telemetry="+mode, func(b *testing.B) {
			cfg := Config{Scheme: SchemeBigMap, MapSize: core.MapSize8M, Seed: 1}
			if mode == "on" {
				cfg.Telemetry = telemetry.New()
			}
			f := newProfileFuzzer(b, profileTarget(b, "libpng", 0.05), cfg)
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
		})
	}
}
