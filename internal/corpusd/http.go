package corpusd

import (
	"encoding/json"
	"errors"
	"net/http"

	"github.com/bigmap/bigmap/internal/core"
	"github.com/bigmap/bigmap/internal/dist"
	"github.com/bigmap/bigmap/internal/telemetry"
)

// maxBodyBytes bounds sync request bodies. Batches carry raw inputs, so the
// limit is generous compared to serve's spec-sized bodies.
const maxBodyBytes = 256 << 20

// Handler returns the store's v1 HTTP API (the wire side of
// dist.Client; the protocol is specified in docs/DISTRIBUTED.md):
//
//	GET  /healthz                          liveness
//	GET  /stats                            all campaigns' stats
//	GET  /metrics                          Prometheus metrics
//	POST /v1/campaigns                     create-or-assert (CampaignRequest)
//	GET  /v1/campaigns                     list campaign names
//	GET  /v1/campaigns/{name}              one campaign's stats
//	POST /v1/campaigns/{name}/join         attach a worker (JoinRequest)
//	POST /v1/campaigns/{name}/push         submit a batch (PushRequest)
//	POST /v1/campaigns/{name}/pull         fetch peer inputs (PullRequest)
//	GET  /v1/campaigns/{name}/inputs/{hash} one input's raw bytes
//	GET  /v1/campaigns/{name}/crashes      deduplicated crash buckets
//	GET  /v1/campaigns/{name}/ledger       the verified hash-chain ledger
//
// Errors are dist.WireError JSON bodies: 400 malformed request or corrupt
// delta, 404 unknown campaign/input, 409 campaign size mismatch or
// sequence gap (code "seq_gap" — the client maps it to dist.ErrSeqGap).
func (s *Store) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /stats", s.handleAllStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/campaigns", s.handleCreate)
	mux.HandleFunc("GET /v1/campaigns", s.handleList)
	mux.HandleFunc("GET /v1/campaigns/{name}", s.handleStats)
	mux.HandleFunc("POST /v1/campaigns/{name}/join", s.handleJoin)
	mux.HandleFunc("POST /v1/campaigns/{name}/push", s.handlePush)
	mux.HandleFunc("POST /v1/campaigns/{name}/pull", s.handlePull)
	mux.HandleFunc("GET /v1/campaigns/{name}/inputs/{hash}", s.handleInput)
	mux.HandleFunc("GET /v1/campaigns/{name}/crashes", s.handleCrashes)
	mux.HandleFunc("GET /v1/campaigns/{name}/ledger", s.handleLedger)
	return mux
}

func (s *Store) handleAllStats(w http.ResponseWriter, _ *http.Request) {
	all := make(map[string]dist.Stats)
	for _, name := range s.Campaigns() {
		st, err := s.Stats(name)
		if err != nil {
			continue
		}
		all[name] = st
	}
	writeJSON(w, http.StatusOK, all)
}

func (s *Store) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	if s.reg == nil {
		http.Error(w, "telemetry disabled", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = telemetry.WritePrometheus(w, s.reg.Snapshot()) //bigmap:err-ok write error means the scraper hung up; nothing to do server-side
}

func (s *Store) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req dist.CampaignRequest
	if !decodeBody(w, r, &req) {
		return
	}
	created, err := s.CreateCampaign(req.Name, req.MapSize)
	if err != nil {
		writeErr(w, err)
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	writeJSON(w, code, dist.CampaignInfo{Name: req.Name, MapSize: req.MapSize, Created: created})
}

func (s *Store) handleList(w http.ResponseWriter, _ *http.Request) {
	names := s.Campaigns()
	infos := make([]dist.CampaignInfo, 0, len(names))
	for _, name := range names {
		size, err := s.MapSize(name)
		if err != nil {
			continue
		}
		infos = append(infos, dist.CampaignInfo{Name: name, MapSize: size})
	}
	writeJSON(w, http.StatusOK, infos)
}

func (s *Store) handleStats(w http.ResponseWriter, r *http.Request) {
	st, err := s.Stats(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Store) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req dist.JoinRequest
	if !decodeBody(w, r, &req) {
		return
	}
	info, err := s.Join(r.PathValue("name"), req.Worker)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Store) handlePush(w http.ResponseWriter, r *http.Request) {
	var req dist.PushRequest
	if !decodeBody(w, r, &req) {
		return
	}
	rcpt, err := s.Push(r.PathValue("name"), req.Worker, req.Batch)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rcpt)
}

func (s *Store) handlePull(w http.ResponseWriter, r *http.Request) {
	var req dist.PullRequest
	if !decodeBody(w, r, &req) {
		return
	}
	pulled, err := s.Pull(r.PathValue("name"), req.Worker)
	if err != nil {
		writeErr(w, err)
		return
	}
	if pulled == nil {
		pulled = []dist.Pulled{} // an empty pull is [] on the wire, never null
	}
	writeJSON(w, http.StatusOK, dist.PullResponse{Inputs: pulled})
}

func (s *Store) handleInput(w http.ResponseWriter, r *http.Request) {
	in, err := s.Input(r.PathValue("name"), r.PathValue("hash"))
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(in) //bigmap:err-ok write error means the client hung up; nothing to do server-side
}

func (s *Store) handleCrashes(w http.ResponseWriter, r *http.Request) {
	crashes, err := s.Crashes(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, crashes)
}

func (s *Store) handleLedger(w http.ResponseWriter, r *http.Request) {
	records, err := s.Ledger(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, records)
}

// decodeBody parses a JSON request body, answering 400 on failure.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, dist.WireError{Error: "decode request: " + err.Error()})
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v) //bigmap:err-ok headers are already sent; an encode/write error means the client hung up
}

// writeErr maps a store error to its HTTP shape, carrying a stable code the
// dist.Client translates back into sentinel errors.
func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	wireCode := ""
	switch {
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrCampaignMismatch):
		code = http.StatusConflict
		wireCode = dist.CodeSizeMismatch
	case errors.Is(err, dist.ErrUnknownWorker):
		code = http.StatusNotFound
		wireCode = dist.CodeUnknownWorker
	case errors.Is(err, dist.ErrSeqGap):
		code = http.StatusConflict
		wireCode = dist.CodeSeqGap
	case errors.Is(err, dist.ErrSizeMismatch):
		code = http.StatusConflict
		wireCode = dist.CodeSizeMismatch
	case errors.Is(err, core.ErrDeltaCorrupt), errors.Is(err, core.ErrDeltaVersion):
		code = http.StatusBadRequest
	}
	writeJSON(w, code, dist.WireError{Error: err.Error(), Code: wireCode})
}
