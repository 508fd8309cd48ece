package telemetry

import (
	"strings"
	"testing"
)

func TestWritePrometheusFormat(t *testing.T) {
	r := New()
	r.Counter("fuzzer_execs_total").Add(100)
	r.Gauge("fuzzer_queue_paths").Set(12)
	h := r.Histogram("exec_ns")
	h.Observe(3) // bucket 2 (le=3)
	h.Observe(3)
	h.Observe(6) // bucket 3 (le=7)

	var b strings.Builder
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# TYPE bigmap_uptime_seconds gauge\n",
		"# TYPE bigmap_fuzzer_execs_total counter\nbigmap_fuzzer_execs_total 100\n",
		"# TYPE bigmap_fuzzer_queue_paths gauge\nbigmap_fuzzer_queue_paths 12\n",
		"# TYPE bigmap_exec_ns histogram\n",
		// Buckets are cumulative: 2 observations at le=3, 3 at le=7.
		"bigmap_exec_ns_bucket{le=\"3\"} 2\n",
		"bigmap_exec_ns_bucket{le=\"7\"} 3\n",
		"bigmap_exec_ns_bucket{le=\"+Inf\"} 3\n",
		"bigmap_exec_ns_sum 12\n",
		"bigmap_exec_ns_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheusDeterministicOrder(t *testing.T) {
	r := New()
	r.Counter("zebra_total").Inc()
	r.Counter("alpha_total").Inc()
	r.Gauge("mid").Set(1)

	var a, b strings.Builder
	if err := WritePrometheus(&a, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	// Strip the uptime lines (the only time-varying part) before comparing.
	trim := func(s string) string {
		lines := strings.Split(s, "\n")
		out := lines[:0]
		for _, l := range lines {
			if strings.Contains(l, "uptime_seconds") {
				continue
			}
			out = append(out, l)
		}
		return strings.Join(out, "\n")
	}
	if trim(a.String()) != trim(b.String()) {
		t.Fatalf("consecutive renders differ:\n%s\n---\n%s", a.String(), b.String())
	}
	if !strings.Contains(a.String(), "bigmap_alpha_total") {
		t.Fatal("missing sorted counter")
	}
	if strings.Index(a.String(), "alpha_total") > strings.Index(a.String(), "zebra_total") {
		t.Fatal("counters not in sorted order")
	}
}

func TestPromNameSanitizes(t *testing.T) {
	cases := map[string]string{
		"exec_ns":       "bigmap_exec_ns",
		"span_save/1":   "bigmap_span_save_1",
		"weird name-x":  "bigmap_weird_name_x",
		"9starts_digit": "bigmap__9starts_digit",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Fatalf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestBucketUpper(t *testing.T) {
	if bucketUpper(0) != 0 {
		t.Fatal("bucket 0 upper must be 0")
	}
	if bucketUpper(1) != 1 || bucketUpper(4) != 15 {
		t.Fatalf("bucket uppers wrong: %d %d", bucketUpper(1), bucketUpper(4))
	}
	if bucketUpper(64) != ^uint64(0) || bucketUpper(NumBuckets-1) != ^uint64(0) {
		t.Fatal("top bucket must saturate at MaxUint64")
	}
}
