package telemetry

import (
	"strings"
	"testing"
)

func TestNilHandlesAreInert(t *testing.T) {
	// The disabled state is all-nil handles; every method must be a no-op
	// rather than a nil-pointer dereference.
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatalf("nil counter value = %d, want 0", c.Value())
	}
	var g *Gauge
	g.Set(7)
	g.Add(-3)
	if g.Value() != 0 {
		t.Fatalf("nil gauge value = %d, want 0", g.Value())
	}
	var h *Histogram
	h.Observe(42)
	h.Done(h.Start())
	if h.Count() != 0 {
		t.Fatalf("nil histogram count = %d, want 0", h.Count())
	}
	if got := h.Start(); got != 0 {
		t.Fatalf("nil histogram Start = %d, want 0 (no clock read)", got)
	}

	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	r.Event("e", "detail")
	if s := r.Snapshot(); len(s.Counters) != 0 || len(s.Events) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
}

func TestCounterAndGauge(t *testing.T) {
	r := New()
	c := r.Counter("execs_total")
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("counter = %d, want 10", c.Value())
	}
	if r.Counter("execs_total") != c {
		t.Fatal("Counter must be get-or-create: same name, same handle")
	}

	g := r.Gauge("queue_paths")
	g.Set(5)
	g.Add(-2)
	if g.Value() != 3 {
		t.Fatalf("gauge = %d, want 3", g.Value())
	}
	if r.Gauge("queue_paths") != g {
		t.Fatal("Gauge must be get-or-create: same name, same handle")
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	// Bucket i holds values with bit length i: 0 -> bucket 0, 1 -> bucket 1,
	// 2..3 -> bucket 2, 4..7 -> bucket 3, ...
	for _, v := range []uint64{0, 1, 2, 3, 4, 7, 8, 1 << 40} {
		h.Observe(v)
	}
	s := h.snapshot()
	if s.Count != 8 {
		t.Fatalf("count = %d, want 8", s.Count)
	}
	if want := uint64(0 + 1 + 2 + 3 + 4 + 7 + 8 + 1<<40); s.Sum != want {
		t.Fatalf("sum = %d, want %d", s.Sum, want)
	}
	if s.Min != 0 || s.Max != 1<<40 {
		t.Fatalf("min/max = %d/%d, want 0/%d", s.Min, s.Max, uint64(1)<<40)
	}
	wantBuckets := map[int]uint64{0: 1, 1: 1, 2: 2, 3: 2, 4: 1, 41: 1}
	for i, n := range s.Buckets {
		if n != wantBuckets[i] {
			t.Fatalf("bucket %d = %d, want %d", i, n, wantBuckets[i])
		}
	}
}

func TestHistogramMinTracksZero(t *testing.T) {
	// Min uses value+1 encoding so an observed 0 is distinguishable from "no
	// observations yet".
	var h Histogram
	h.Observe(100)
	if s := h.snapshot(); s.Min != 100 {
		t.Fatalf("min = %d, want 100", s.Min)
	}
	h.Observe(0)
	if s := h.snapshot(); s.Min != 0 {
		t.Fatalf("min after observing 0 = %d, want 0", s.Min)
	}
}

func TestQuantileWithin2x(t *testing.T) {
	// Log2 buckets guarantee estimates within 2x of the true value.
	var h Histogram
	for v := uint64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := h.snapshot()
	checks := []struct {
		got  uint64
		true uint64
	}{{s.P50, 500}, {s.P90, 900}, {s.P99, 990}}
	for _, c := range checks {
		if c.got < c.true/2 || c.got > c.true*2 {
			t.Fatalf("quantile estimate %d not within 2x of %d", c.got, c.true)
		}
	}
}

func TestHistogramStartDone(t *testing.T) {
	r := New()
	h := r.Histogram("op_ns")
	t0 := h.Start()
	h.Done(t0)
	if h.Count() != 1 {
		t.Fatalf("count = %d, want 1 after Start/Done", h.Count())
	}
}

func TestSnapshotContents(t *testing.T) {
	r := New()
	r.Counter("a_total").Add(3)
	r.Gauge("b").Set(-7)
	r.Histogram("c_ns").Observe(16)
	r.Event("milestone", "detail text")

	s := r.Snapshot()
	if s.Counters["a_total"] != 3 {
		t.Fatalf("snapshot counter = %d, want 3", s.Counters["a_total"])
	}
	if s.Gauges["b"] != -7 {
		t.Fatalf("snapshot gauge = %d, want -7", s.Gauges["b"])
	}
	h := s.Histograms["c_ns"]
	if h.Count != 1 || h.Sum != 16 || len(h.Buckets) != NumBuckets {
		t.Fatalf("snapshot histogram = %+v", h)
	}
	if len(s.Events) != 1 || s.Events[0].Name != "milestone" || s.EventsTotal != 1 {
		t.Fatalf("snapshot events = %+v (total %d)", s.Events, s.EventsTotal)
	}
	if s.UptimeNanos < 0 {
		t.Fatalf("uptime = %d, want >= 0", s.UptimeNanos)
	}
}

func TestEventLogRingWraps(t *testing.T) {
	r := New()
	for i := 0; i < eventLogSize+10; i++ {
		r.Event("e", strings.Repeat("x", i%3))
	}
	events, total := r.Events().Snapshot()
	if total != eventLogSize+10 {
		t.Fatalf("total = %d, want %d", total, eventLogSize+10)
	}
	if len(events) != eventLogSize {
		t.Fatalf("retained = %d, want %d", len(events), eventLogSize)
	}
	// Oldest-first: timestamps must be non-decreasing across the seam.
	for i := 1; i < len(events); i++ {
		if events[i].AtNanos < events[i-1].AtNanos {
			t.Fatalf("events out of order at %d: %d < %d", i, events[i].AtNanos, events[i-1].AtNanos)
		}
	}
}

func TestNowIsMonotonicNonNegative(t *testing.T) {
	a := Now()
	b := Now()
	if a < 0 || b < a {
		t.Fatalf("Now not monotone: %d then %d", a, b)
	}
}

func TestObserveZeroAllocs(t *testing.T) {
	var h Histogram
	if n := testing.AllocsPerRun(1000, func() { h.Observe(12345) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v allocs/op, want 0", n)
	}
	var nilH *Histogram
	if n := testing.AllocsPerRun(1000, func() { nilH.Done(nilH.Start()) }); n != 0 {
		t.Fatalf("nil Start/Done allocates %v allocs/op, want 0", n)
	}
	var c Counter
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Fatalf("Counter.Inc allocates %v allocs/op, want 0", n)
	}
}
