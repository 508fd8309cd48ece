package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/bigmap/bigmap/internal/dist"
	"github.com/bigmap/bigmap/internal/telemetry"
)

// maxBodyBytes bounds request bodies; campaign specs are tiny.
const maxBodyBytes = 1 << 20

// DaemonStats is the daemon-level summary served by GET /stats.
type DaemonStats struct {
	// Campaigns counts campaigns by lifecycle state.
	Campaigns map[State]int `json:"campaigns"`
	// QueueDepth is the number of campaigns waiting for a worker.
	QueueDepth int `json:"queue_depth"`
	// Workers is the configured pool size.
	Workers int `json:"workers"`
	// Draining reports a shutdown in progress.
	Draining bool `json:"draining"`
}

// DaemonStats renders the daemon-level summary.
func (d *Daemon) DaemonStats() DaemonStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	ds := DaemonStats{
		Campaigns: make(map[State]int),
		Workers:   d.cfg.Workers,
		Draining:  d.draining,
	}
	for _, c := range d.campaigns {
		ds.Campaigns[c.state]++
	}
	for _, q := range d.queues {
		ds.QueueDepth += len(q)
	}
	return ds
}

// Handler returns the daemon's HTTP API:
//
//	GET  /healthz                   liveness (200, or 503 while draining)
//	GET  /stats                     daemon summary (DaemonStats)
//	GET  /metrics                   daemon Prometheus metrics
//	POST /campaigns                 submit (SubmitRequest -> Info)
//	GET  /campaigns[?tenant=t]      list
//	GET  /campaigns/{id}            one campaign
//	POST /campaigns/{id}/pause      pause at next round boundary
//	POST /campaigns/{id}/resume     requeue a paused campaign
//	POST /campaigns/{id}/cancel     terminate
//	POST /campaigns/{id}/kill       chaos: crash the owning worker (Config.Chaos)
//	GET  /campaigns/{id}/stats      cached progress snapshot
//	GET  /campaigns/{id}/crashes    deduplicated crash buckets
//	GET  /campaigns/{id}/events     campaign event log
//	GET  /campaigns/{id}/metrics    per-campaign Prometheus metrics
//
// Every request carries a Config.RequestTimeout deadline on its context.
// Errors map to dist.WireError JSON bodies (no code): 400 bad spec, 404 unknown
// campaign, 409 illegal transition, 429 quota exceeded (with Retry-After),
// 503 draining.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", d.handleHealthz)
	mux.HandleFunc("GET /stats", d.handleDaemonStats)
	mux.HandleFunc("GET /metrics", d.handleDaemonMetrics)
	mux.HandleFunc("POST /campaigns", d.handleSubmit)
	mux.HandleFunc("GET /campaigns", d.handleList)
	mux.HandleFunc("GET /campaigns/{id}", d.handleGet)
	mux.HandleFunc("POST /campaigns/{id}/pause", d.handlePause)
	mux.HandleFunc("POST /campaigns/{id}/resume", d.handleResume)
	mux.HandleFunc("POST /campaigns/{id}/cancel", d.handleCancel)
	mux.HandleFunc("POST /campaigns/{id}/kill", d.handleKill)
	mux.HandleFunc("GET /campaigns/{id}/stats", d.handleStats)
	mux.HandleFunc("GET /campaigns/{id}/crashes", d.handleCrashes)
	mux.HandleFunc("GET /campaigns/{id}/events", d.handleEvents)
	mux.HandleFunc("GET /campaigns/{id}/metrics", d.handleCampaignMetrics)
	return d.withDeadline(mux)
}

// withDeadline attaches the configured request deadline to every context, so
// a stuck transition acknowledgement cannot pin a client connection forever.
func (d *Daemon) withDeadline(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d.cfg.RequestTimeout)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

func (d *Daemon) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	d.mu.Lock()
	draining := d.draining || d.closed
	d.mu.Unlock()
	if draining {
		writeErr(w, ErrDraining)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (d *Daemon) handleDaemonStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, d.DaemonStats())
}

func (d *Daemon) handleDaemonMetrics(w http.ResponseWriter, _ *http.Request) {
	writeMetrics(w, d.reg)
}

func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, specErrf("decode request: %v", err))
		return
	}
	info, err := d.Submit(r.Context(), req)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Location", "/campaigns/"+info.ID)
	writeJSON(w, http.StatusCreated, info)
}

func (d *Daemon) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, d.List(r.URL.Query().Get("tenant")))
}

func (d *Daemon) handleGet(w http.ResponseWriter, r *http.Request) {
	info, err := d.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (d *Daemon) handlePause(w http.ResponseWriter, r *http.Request) {
	d.transition(w, r, d.Pause)
}

func (d *Daemon) handleResume(w http.ResponseWriter, r *http.Request) {
	d.transition(w, r, d.Resume)
}

func (d *Daemon) handleCancel(w http.ResponseWriter, r *http.Request) {
	d.transition(w, r, d.Cancel)
}

func (d *Daemon) handleKill(w http.ResponseWriter, r *http.Request) {
	d.transition(w, r, func(_ context.Context, id string) (*Info, error) {
		return d.Kill(id)
	})
}

// transition runs one lifecycle operation and renders the resulting view.
func (d *Daemon) transition(w http.ResponseWriter, r *http.Request,
	op func(context.Context, string) (*Info, error)) {
	info, err := op(r.Context(), r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (d *Daemon) handleStats(w http.ResponseWriter, r *http.Request) {
	st, err := d.Stats(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (d *Daemon) handleCrashes(w http.ResponseWriter, r *http.Request) {
	buckets, err := d.Crashes(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, buckets)
}

// handleEvents serves the campaign event log. The polling contract: each
// GET returns a snapshot of the most recent events (a fixed-capacity ring,
// currently 256 — older events are evicted, so this is a milestone feed,
// not a durable stream), oldest first, with monotonic at_ns timestamps
// measured from daemon start. There is no cursor parameter and no
// long-poll/SSE mode; clients poll and deduplicate by (at_ns, name,
// detail), which is unique in practice because at_ns has nanosecond
// resolution and events are cold-path. Events never carry campaign state —
// anything a client must not miss (state transitions, stats, crashes) has
// its own endpoint and is re-derivable there.
func (d *Daemon) handleEvents(w http.ResponseWriter, r *http.Request) {
	evs, err := d.Events(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, evs)
}

func (d *Daemon) handleCampaignMetrics(w http.ResponseWriter, r *http.Request) {
	reg, err := d.Registry(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeMetrics(w, reg)
}

func writeMetrics(w http.ResponseWriter, reg *telemetry.Registry) {
	if reg == nil {
		http.Error(w, "telemetry disabled", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = telemetry.WritePrometheus(w, reg.Snapshot()) //bigmap:err-ok write error means the scraper hung up; nothing to do server-side
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) //bigmap:err-ok headers are already sent; an encode/write error means the client hung up
}

// writeErr maps a control-plane error to its HTTP shape.
func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var se *SpecError
	var oe *OverloadError
	switch {
	case errors.As(err, &se):
		code = http.StatusBadRequest
	case errors.As(err, &oe):
		code = http.StatusTooManyRequests
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(oe.RetryAfter/time.Second)+1))
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrConflict):
		code = http.StatusConflict
	case errors.Is(err, ErrDraining):
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, dist.WireError{Error: err.Error()})
}
