package telemetry

// Snapshot is a point-in-time, plain-data view of a registry: every metric
// by name, the retained events, and the process uptime. The layout is
// deterministic (names sorted, fixed bucket geometry) so two snapshots diff
// cleanly; the struct marshals directly to the /stats JSON endpoint.
type Snapshot struct {
	UptimeNanos int64                        `json:"uptime_ns"`
	Counters    map[string]uint64            `json:"counters,omitempty"`
	Gauges      map[string]int64             `json:"gauges,omitempty"`
	Histograms  map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Events      []Event                      `json:"events,omitempty"`
	EventsTotal uint64                       `json:"events_total,omitempty"`
}

// Snapshot captures the registry's current state. It is safe to call from
// any goroutine while recorders are running: metric reads are individual
// atomic loads, so the result is approximately consistent — fine for stats,
// never used for fuzzing decisions. A nil registry yields a zero Snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	snap := Snapshot{UptimeNanos: Now()}

	// The name->metric maps are copied under the registry lock (registration
	// is cheap and rare); the metric values themselves are read lock-free.
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	//bigmap:nondeterministic-ok map copy; the output maps are rendered via sorted keys
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	//bigmap:nondeterministic-ok map copy; the output maps are rendered via sorted keys
	for k, v := range r.gauges {
		gauges[k] = v
	}
	histograms := make(map[string]*Histogram, len(r.histograms))
	//bigmap:nondeterministic-ok map copy; the output maps are rendered via sorted keys
	for k, v := range r.histograms {
		histograms[k] = v
	}
	r.mu.Unlock()

	if len(counters) > 0 {
		snap.Counters = make(map[string]uint64, len(counters))
		for _, name := range sortedKeys(counters) {
			snap.Counters[name] = counters[name].Value()
		}
	}
	if len(gauges) > 0 {
		snap.Gauges = make(map[string]int64, len(gauges))
		for _, name := range sortedKeys(gauges) {
			snap.Gauges[name] = gauges[name].Value()
		}
	}
	if len(histograms) > 0 {
		snap.Histograms = make(map[string]HistogramSnapshot, len(histograms))
		for _, name := range sortedKeys(histograms) {
			snap.Histograms[name] = histograms[name].snapshot()
		}
	}
	snap.Events, snap.EventsTotal = r.events.Snapshot()
	return snap
}
