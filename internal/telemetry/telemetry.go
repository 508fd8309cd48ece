package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// clockBase anchors Now: readings are monotonic nanoseconds since process
// start, so timestamps are compact, unaffected by wall-clock steps, and
// carry no absolute time into metrics output.
var clockBase = time.Now() //bigmap:nondeterministic-ok telemetry is the audited wall-clock sink; readings never feed resume-relevant state

// Now returns monotonic nanoseconds since process start. It is the package's
// only clock read; every histogram timing and event timestamp flows
// through it, which keeps the determinism audit surface a single line.
func Now() int64 {
	return int64(time.Since(clockBase)) //bigmap:nondeterministic-ok telemetry is the audited wall-clock sink; readings never feed resume-relevant state
}

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil *Counter ignores all writes, which is how disabled
// telemetry costs only a nil check on the hot path.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
//
//bigmap:hotpath per-event counter bump
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
//
//bigmap:hotpath per-event counter bump
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (queue length, edges discovered).
// A nil *Gauge ignores all writes.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
//
//bigmap:hotpath per-sample gauge store
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta.
//
//bigmap:hotpath per-sample gauge adjust
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry holds named metrics and the event log. Metric handles are
// get-or-create: the first lookup of a name allocates the metric, later
// lookups (from any goroutine, any instance) return the same one, so
// parallel campaign instances sharing a registry aggregate naturally.
//
// Lookups take a lock and may allocate; hot paths resolve their handles once
// at setup and record through the returned pointers, which is lock-free.
// A nil *Registry hands out nil handles everywhere, so "telemetry off" is a
// nil registry and nothing else.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	events     *EventLog
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		events:     newEventLog(eventLogSize),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Events returns the registry's event log (nil on a nil registry).
func (r *Registry) Events() *EventLog {
	if r == nil {
		return nil
	}
	return r.events
}

// Event appends a named event to the ring buffer — a convenience for cold
// paths (checkpoint written, instance revived) that do not keep handles.
func (r *Registry) Event(name, detail string) {
	if r == nil {
		return
	}
	r.events.Add(name, detail)
}

// sortedKeys returns the map's keys in sorted order — the deterministic
// iteration every snapshot path uses.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	//bigmap:nondeterministic-ok iteration feeds the sort below; snapshot layout is deterministic
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
