package executor

import (
	"testing"

	"github.com/bigmap/bigmap/internal/core"
	"github.com/bigmap/bigmap/internal/target"
	"github.com/bigmap/bigmap/internal/telemetry"
)

// benchRig builds the steady-state exec pipeline used by the telemetry
// overhead tests: a warmed BigMap whose slots are all assigned and absorbed
// into virgin, so the loop under measurement does no discovery work.
func benchRig(tb testing.TB) (m *core.BigMap, e *Executor, virgin *core.Virgin, input []byte) {
	tb.Helper()
	m, err := core.NewBigMap(core.MapSize8M)
	if err != nil {
		tb.Fatal(err)
	}
	metric, err := core.NewEdgeMetric(core.MapSize8M)
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := target.Generate(target.GenSpec{
		Name:           "tel-overhead",
		Seed:           11,
		NumFuncs:       4,
		BlocksPerFunc:  16,
		InputLen:       32,
		BranchFraction: 0.5,
		Loops:          1,
		LoopMax:        4,
	})
	if err != nil {
		tb.Fatal(err)
	}
	e, err = New(prog, metric, m, 0)
	if err != nil {
		tb.Fatal(err)
	}
	virgin = m.NewVirgin()
	input = make([]byte, 32)
	m.Reset()
	e.Execute(input)
	m.ClassifyAndCompare(virgin)
	return m, e, virgin, input
}

// TestExecLoopZeroAllocsTelemetry is the overhead guard for the telemetry
// layer: the exec loop must stay 0 allocs/op both with telemetry disabled
// (nil handles — the shipped default) and with it enabled (recording is
// atomic adds into preallocated buckets, no allocation either).
func TestExecLoopZeroAllocsTelemetry(t *testing.T) {
	t.Run("disabled", func(t *testing.T) {
		m, e, virgin, input := benchRig(t)
		m.Instrument(telemetry.NewMapOps(nil, "bigmap")) // explicit all-nil bundle
		allocs := testing.AllocsPerRun(50, func() {
			m.Reset()
			e.Execute(input)
			m.ClassifyAndCompare(virgin)
		})
		if allocs != 0 {
			t.Errorf("telemetry-disabled exec loop allocates %.2f per exec, want 0", allocs)
		}
	})
	t.Run("enabled", func(t *testing.T) {
		reg := telemetry.New()
		m, e, virgin, input := benchRig(t)
		m.Instrument(telemetry.NewMapOps(reg, "bigmap"))
		allocs := testing.AllocsPerRun(50, func() {
			m.Reset()
			e.Execute(input)
			m.ClassifyAndCompare(virgin)
		})
		if allocs != 0 {
			t.Errorf("telemetry-enabled exec loop allocates %.2f per exec, want 0", allocs)
		}
		if n := reg.Histogram("map_bigmap_reset_ns").Count(); n == 0 {
			t.Error("enabled run recorded nothing into map_bigmap_reset_ns")
		}
	})
}

// BenchmarkExecLoopTelemetry compares the per-exec pipeline with telemetry
// off (nil handles) and on (live histograms), quantifying the cost the nil
// fast path avoids and the clock reads the enabled path pays.
func BenchmarkExecLoopTelemetry(b *testing.B) {
	for _, mode := range []string{"off", "on"} {
		b.Run(mode, func(b *testing.B) {
			m, e, virgin, input := benchRig(b)
			if mode == "on" {
				reg := telemetry.New()
				m.Instrument(telemetry.NewMapOps(reg, "bigmap"))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Reset()
				res := e.Execute(input)
				if res.Status != target.StatusOK {
					b.Fatalf("status %v", res.Status)
				}
				m.ClassifyAndCompare(virgin)
			}
		})
	}
}
