package dist

// The v1 corpus-service protocol (docs/DISTRIBUTED.md) marshals the
// package's own types: JoinInfo, Batch, Crash, Receipt, Pulled and Stats
// carry their wire names as JSON tags, and this file adds only the request
// envelopes and error body around them. The dist.Client and the
// internal/corpusd server both marshal through these types, so the two
// sides cannot drift. encoding/json renders []byte as base64, which is the
// wire form for all input bytes and encoded deltas.

// WireError is the JSON body of every non-2xx response. Code carries a
// stable machine-readable cause that the client maps back onto the package
// sentinel errors.
type WireError struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// Error codes carried in WireError.Code.
const (
	CodeUnknownWorker = "unknown_worker"
	CodeSeqGap        = "seq_gap"
	CodeSizeMismatch  = "size_mismatch"
)

// CampaignRequest creates (or idempotently re-asserts) a campaign.
type CampaignRequest struct {
	Name    string `json:"name"`
	MapSize int    `json:"map_size"`
}

// CampaignInfo describes one campaign.
type CampaignInfo struct {
	Name    string `json:"name"`
	MapSize int    `json:"map_size"`
	Created bool   `json:"created,omitempty"`
}

// JoinRequest attaches a worker to a campaign.
type JoinRequest struct {
	Worker string `json:"worker"`
}

// PushRequest submits one batch: the worker name, then the batch's own
// fields.
type PushRequest struct {
	Worker string `json:"worker"`
	Batch
}

// PullRequest asks for peer inputs since the worker's cursor.
type PullRequest struct {
	Worker string `json:"worker"`
}

// PullResponse delivers peer inputs in global arrival order.
type PullResponse struct {
	Inputs []Pulled `json:"inputs"`
}
