package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// namePrefix namespaces every exported metric, per Prometheus convention.
const namePrefix = "bigmap_"

// WritePrometheus renders a snapshot in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as single samples, histograms
// as cumulative le-labeled buckets with _sum and _count. Metric names are
// sanitized to [a-zA-Z0-9_:] and prefixed with "bigmap_". Output order is
// the snapshot's sorted order, so consecutive scrapes diff cleanly.
func WritePrometheus(w io.Writer, s Snapshot) error {
	bw := &errWriter{w: w}
	fmt.Fprintf(bw, "# TYPE %suptime_seconds gauge\n%suptime_seconds %g\n",
		namePrefix, namePrefix, float64(s.UptimeNanos)/1e9)

	for _, name := range sortedSnapKeys(s.Counters) {
		n := promName(name)
		fmt.Fprintf(bw, "# TYPE %s counter\n%s %d\n", n, n, s.Counters[name])
	}
	for _, name := range sortedSnapKeys(s.Gauges) {
		n := promName(name)
		fmt.Fprintf(bw, "# TYPE %s gauge\n%s %d\n", n, n, s.Gauges[name])
	}
	for _, name := range sortedSnapKeys(s.Histograms) {
		writePromHistogram(bw, promName(name), s.Histograms[name])
	}
	return bw.err
}

func writePromHistogram(w io.Writer, name string, h HistogramSnapshot) {
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	var cum uint64
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		cum += n
		fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, bucketUpper(i), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
	fmt.Fprintf(w, "%s_sum %d\n", name, h.Sum)
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count)
}

// promName sanitizes a metric name for the exposition format and applies the
// namespace prefix. Internal names are already snake_case ASCII; this guards
// the odd dynamic name built at run time.
func promName(name string) string {
	var b strings.Builder
	b.WriteString(namePrefix)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// sortedSnapKeys sorts a snapshot map's keys. Snapshot maps are plain data
// handed to the renderer, so order is (re)established here rather than
// trusted from the caller.
func sortedSnapKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// errWriter latches the first write error so the render loop stays linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, nil
}
