// Package serve is the fuzzing-as-a-service control plane: a long-running
// daemon that turns one-shot bigmap-fuzz runs into addressable, multi-tenant
// campaign objects behind an HTTP/JSON API.
//
// Clients POST a target profile plus fuzz configuration and get back a
// campaign ID; they can then list, get, pause, resume and cancel campaigns
// and poll stats, new-coverage events and crash buckets. Many concurrent
// campaigns share a bounded worker pool with fair-share scheduling across
// tenants; per-tenant and global quotas shed excess load with 429 and a
// Retry-After hint instead of growing without bound. Tenancy is asserted by
// the client, not authenticated — see SubmitRequest.Tenant for the trust
// model and the proxy deployments that make quotas enforceable.
//
// Robustness is the organizing principle. Every campaign is checkpointed on
// a configurable round cadence through the hardened atomic writer in
// internal/checkpoint, so a worker crash — or a kill -9 of the whole daemon
// — recovers by resuming from the last checkpoint with bitwise-identical
// campaign state (the parallel package's split-invariant RunRounds makes
// the re-run of lost rounds reproduce exactly what the crash destroyed).
// Worker crashes are retried with exponential backoff plus deterministic
// jitter behind a per-campaign max-restarts circuit breaker; request
// deadlines propagate via context; and SIGTERM drains gracefully — every
// campaign is paused at its next round boundary, a last-gasp checkpoint is
// taken, and the state store marks it paused so a restarted daemon offers
// to resume it.
package serve

import (
	"errors"
	"fmt"
	"time"
)

// State is a campaign's position in its lifecycle.
//
// The machine is:
//
//	queued ──► running ──► finished
//	  ▲  ▲        │ ▲          (terminal)
//	  │  │        │ │
//	  │  └────────┘ │   running ──► failed     (terminal; crash budget spent)
//	  │  (yield or  │   any     ──► cancelled  (terminal; operator request)
//	  │   crash+    │
//	  │   backoff)  ▼
//	  └───────── paused
//	    (resume)
//
// queued means runnable and waiting for a worker (including the backoff
// window after a worker crash); running means a worker is executing rounds
// right now; paused is operator- or drain-initiated and survives restarts.
type State string

// Campaign lifecycle states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StatePaused    State = "paused"
	StateFinished  State = "finished"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether no further execution is possible from s.
func (s State) Terminal() bool {
	return s == StateFinished || s == StateFailed || s == StateCancelled
}

// valid reports whether s is one of the defined states (used when loading
// metadata written by other daemon versions).
func (s State) valid() bool {
	switch s {
	case StateQueued, StateRunning, StatePaused, StateFinished, StateFailed, StateCancelled:
		return true
	}
	return false
}

// Spec is the client-supplied campaign definition: which synthetic target to
// fuzz and how. It is stored verbatim in the state store — a campaign's
// checkpoint holds state, the spec holds configuration, and recovery
// rebuilds the exact original run from the two.
type Spec struct {
	// Bench names the target profile (Table II / Table III benchmark).
	Bench string `json:"bench"`
	// Scale is the benchmark scale relative to the paper's static edge
	// count (default 0.05 — laptop-sized).
	Scale float64 `json:"scale,omitempty"`
	// Scheme picks the coverage map: "afl" or "bigmap" (default bigmap).
	Scheme string `json:"scheme,omitempty"`
	// MapSize is the coverage map size in slots (default 65536).
	MapSize int `json:"map_size,omitempty"`
	// Seed seeds all campaign randomness (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// SeedCorpus is the synthesized seed corpus size (default 16).
	SeedCorpus int `json:"seed_corpus,omitempty"`
	// Instances is the parallel instance count (default 1).
	Instances int `json:"instances,omitempty"`
	// SyncEvery is the per-instance exec budget of one sync round
	// (default 2000). Together with Rounds it fixes the campaign length.
	SyncEvery uint64 `json:"sync_every,omitempty"`
	// Rounds is the campaign budget in sync rounds (required, >= 1). The
	// round — not the exec — is the service's unit of work: rounds are
	// split-invariant, so pausing, crashing and resuming never change what
	// the campaign computes.
	Rounds int `json:"rounds"`
	// MasterDeterministic runs AFL's deterministic stages on instance 0.
	MasterDeterministic bool `json:"master_deterministic,omitempty"`
	// SlotCap bounds BigMap's dense-slot region (0 = unbounded).
	SlotCap int `json:"slot_cap,omitempty"`
}

// SubmitRequest is the body of POST /campaigns.
type SubmitRequest struct {
	// Tenant is the quota domain the campaign bills against. Letters,
	// digits, '-' and '_' only; defaults to "default".
	//
	// The tenant is client-asserted: the daemon performs no authentication,
	// so per-tenant quotas and fair-share scheduling are advisory against a
	// client willing to vary the string per submission — only the global
	// MaxActive cap actually bounds an untrusted client. Deployments that
	// need enforced isolation must put the API behind an authenticating
	// proxy that pins or injects the tenant from verified credentials.
	Tenant string `json:"tenant,omitempty"`
	// Spec defines the campaign.
	Spec Spec `json:"spec"`
}

// CampaignStats is the progress snapshot cached at each round-quantum
// boundary and served by GET /campaigns/{id}/stats. All values are as of the
// most recent boundary — the service never reaches into a running round.
type CampaignStats struct {
	// Execs sums executions across instances.
	Execs uint64 `json:"execs"`
	// Rounds counts completed sync rounds (out of Spec.Rounds).
	Rounds int `json:"rounds"`
	// Paths is the largest single-instance queue size.
	Paths int `json:"paths"`
	// Edges is the best single-instance edge coverage.
	Edges int `json:"edges"`
	// Crashes counts crashing executions; UniqueCrashes counts Crashwalk
	// buckets across all instances.
	Crashes       uint64 `json:"crashes"`
	UniqueCrashes int    `json:"unique_crashes"`
	// Hangs counts budget-exhausted executions.
	Hangs uint64 `json:"hangs"`
	// FailedInstances counts instances the in-campaign supervisor
	// abandoned (distinct from worker crashes, which the daemon retries).
	FailedInstances int `json:"failed_instances,omitempty"`
}

// Info is the full public view of one campaign.
type Info struct {
	// ID addresses the campaign in every endpoint.
	ID string `json:"id"`
	// Tenant is the quota domain.
	Tenant string `json:"tenant"`
	// State is the lifecycle position.
	State State `json:"state"`
	// Spec echoes the submitted definition (after defaulting).
	Spec Spec `json:"spec"`
	// Rounds counts completed sync rounds; CheckpointRounds is how many of
	// them the newest on-disk checkpoint covers (a crash rolls Rounds back
	// to CheckpointRounds).
	Rounds           int `json:"rounds"`
	CheckpointRounds int `json:"checkpoint_rounds"`
	// Restarts counts worker crashes charged against the campaign's
	// circuit breaker (Config.MaxRestarts).
	Restarts int `json:"restarts,omitempty"`
	// Error is the terminal error for failed campaigns.
	Error string `json:"error,omitempty"`
	// Stats is the latest cached progress snapshot, nil before the first
	// completed quantum.
	Stats *CampaignStats `json:"stats,omitempty"`
}

// Sentinel errors mapped to HTTP statuses by the handler layer.
var (
	// ErrNotFound: no such campaign (404).
	ErrNotFound = errors.New("serve: no such campaign")
	// ErrConflict: the requested transition is not legal from the
	// campaign's current state (409).
	ErrConflict = errors.New("serve: conflicting campaign state")
	// ErrDraining: the daemon is shutting down and accepts no new work
	// (503).
	ErrDraining = errors.New("serve: daemon is draining")
)

// OverloadError rejects a submission that would exceed a quota; the handler
// layer turns it into 429 with a Retry-After header.
type OverloadError struct {
	// Scope is "tenant" or "global".
	Scope string
	// Limit is the quota that would be exceeded.
	Limit int
	// RetryAfter is the suggested client backoff.
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("serve: %s quota of %d active campaigns exceeded, retry after %v",
		e.Scope, e.Limit, e.RetryAfter)
}
