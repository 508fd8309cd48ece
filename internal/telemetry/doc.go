// Package telemetry is the live observability layer: a standard-library-only
// metrics registry (atomic counters, gauges, and fixed-bucket log-scale
// histograms) plus a bounded event log, designed so that the fuzzing hot
// path can be instrumented without giving up its two core properties — zero
// allocations per execution and bitwise-deterministic resume.
//
// # Design constraints
//
// Recording is allocation-free and lock-free: counters and gauges are single
// atomics, and a histogram is a fixed array of atomic bucket counters indexed
// by the value's bit length (log2 buckets), so Observe never allocates, never
// takes a lock, and costs a handful of atomic adds. Snapshot readers race
// benignly with recorders — each atomic is read individually, so a snapshot
// is approximately-consistent, which is all a stats endpoint needs.
//
// Telemetry is opt-in at runtime: everything hangs off a *Registry, and a nil
// registry (and the nil Counter/Gauge/Histogram handles it hands out) turns
// every record call into a nil-check-and-return, so the instrumented hot
// paths cost nothing measurable when telemetry is off — in particular, no
// clock is read.
//
// # Determinism
//
// Telemetry observes the wall clock by design (that is its job), which is
// exactly what the determinism vet analyzer exists to flag. The package
// confines clock reads to a single function, Now, whose annotated call sites
// are the audited exemption; readings flow only into metrics and events,
// never into fuzzing decisions or checkpointed state, so a campaign run with
// telemetry on resumes bitwise-identically to one run with it off
// (TestResumeMatchesUninterrupted holds either way).
//
// # Exposure
//
// Registry.Snapshot returns a plain-data Snapshot (JSON-marshalable, sorted,
// deterministic layout); WritePrometheus renders it in the Prometheus text
// exposition format; Handler serves /metrics, /stats and net/http/pprof from
// one http.Handler — the surface behind bigmap-fuzz's -http flag.
package telemetry
