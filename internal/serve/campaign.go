package serve

import (
	"github.com/bigmap/bigmap/internal/crash"
	"github.com/bigmap/bigmap/internal/parallel"
	"github.com/bigmap/bigmap/internal/target"
	"github.com/bigmap/bigmap/internal/telemetry"
)

// campaign is the daemon's managed view of one submitted campaign: the
// durable identity and lifecycle state, the control flags the API flips and
// the worker honours at round boundaries, and the (transient) materialized
// runtime.
//
// Locking: every field below the mu marker is guarded by the daemon's
// single mutex — campaign metadata is small and transitions are rare, so
// one lock keeps the state machine trivially race-free. The runtime fields
// at the bottom are worker-owned: exactly one worker executes a campaign at
// a time (enforced by the run queue — a campaign is requeued only after the
// owning worker has released it), so they are accessed without the lock.
type campaign struct {
	id     string
	tenant string
	spec   Spec

	// state is the lifecycle position. guarded by mu.
	state State
	// rounds counts completed sync rounds; chkRounds is the round stamp of
	// the newest on-disk checkpoint (rounds rolls back to chkRounds when a
	// worker crash discards uncheckpointed work). Both guarded by mu.
	rounds    int
	chkRounds int
	// restarts counts worker crashes charged against the circuit breaker.
	// guarded by mu.
	restarts int
	// errText is the terminal error of a failed campaign. guarded by mu.
	errText string
	// inQueue marks the campaign as present in a tenant run queue, so a
	// state flip cannot enqueue it twice. guarded by mu.
	inQueue bool
	// wantPause / wantCancel / wantKill are one-shot control requests the
	// owning worker consumes at its next round boundary. wantKill is the
	// chaos hook: it makes the worker simulate its own crash. All guarded
	// by mu.
	wantPause  bool
	wantCancel bool
	wantKill   bool
	// stats and crashes cache the last boundary snapshot for the read
	// endpoints, so polling never touches a running campaign. guarded by
	// mu.
	stats   *CampaignStats
	crashes []crash.Record

	// reg is the per-campaign telemetry registry (events + metrics under
	// /campaigns/{id}/...). Atomic and nil-safe by the telemetry package's
	// contract, so deliberately not under the mutex.
	reg *telemetry.Registry

	// Worker-owned (see struct comment): the materialized runtime and the
	// generated target program. prog is a pure function of the spec and is
	// kept across crashes as a cache; runtime is dropped on pause and
	// crash and rebuilt from the newest checkpoint.
	runtime *parallel.Campaign
	prog    *target.Program
}

// infoLocked renders the public view. Caller holds the daemon mutex.
func (c *campaign) infoLocked() *Info {
	info := &Info{
		ID:               c.id,
		Tenant:           c.tenant,
		State:            c.state,
		Spec:             c.spec,
		Rounds:           c.rounds,
		CheckpointRounds: c.chkRounds,
		Restarts:         c.restarts,
		Error:            c.errText,
	}
	if c.stats != nil {
		s := *c.stats
		info.Stats = &s
	}
	return info
}

// metaLocked renders the persisted document. Caller holds the daemon mutex.
func (c *campaign) metaLocked() *meta {
	m := &meta{
		ID:       c.id,
		Tenant:   c.tenant,
		State:    c.state,
		Spec:     c.spec,
		Restarts: c.restarts,
		Error:    c.errText,
	}
	if c.stats != nil {
		s := *c.stats
		m.Stats = &s
	}
	return m
}

// statsFromReport condenses a campaign report into the cached snapshot.
func statsFromReport(rounds int, rep parallel.Report) *CampaignStats {
	st := &CampaignStats{
		Execs:           rep.TotalExecs,
		Rounds:          rounds,
		Edges:           rep.MaxEdges,
		UniqueCrashes:   rep.UniqueCrashes,
		FailedInstances: rep.FailedInstances,
	}
	for _, ist := range rep.PerInstance {
		if ist.Paths > st.Paths {
			st.Paths = ist.Paths
		}
		st.Crashes += ist.Crashes
		st.Hangs += ist.Hangs
	}
	return st
}

// bucketsFromRecords copies crash records for the read endpoints, each
// input cloned so the cache shares no bytes with the campaign's fuzzers.
func bucketsFromRecords(recs []*crash.Record) []crash.Record {
	out := make([]crash.Record, len(recs))
	for i, r := range recs {
		out[i] = *r
		out[i].Input = append([]byte(nil), r.Input...)
	}
	return out
}
