package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
)

// Handler serves the observability surface for one registry:
//
//	/metrics        Prometheus text exposition format
//	/stats          the full Snapshot as JSON
//	/debug/pprof/   the standard net/http/pprof profiles
//	/               a plain-text index of the above
//
// With a nil registry (telemetry disabled) /metrics
// and /stats answer 503 while the pprof endpoints keep working — profiling a
// telemetry-free binary is still useful.
func Handler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		if r == nil {
			http.Error(w, "telemetry disabled", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, r.Snapshot())
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
		if r == nil {
			http.Error(w, "telemetry disabled", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("bigmap observability\n\n" +
			"  /metrics       Prometheus text format\n" +
			"  /stats         JSON snapshot (counters, gauges, histograms, events)\n" +
			"  /debug/pprof/  Go runtime profiles\n"))
	})
	return mux
}
