// Package ensemble implements ensemble fuzzing — the paper's §VI names the
// BigMap-vs-ensemble comparison as an open avenue for future research, and
// this package makes the experiment runnable.
//
// An ensemble runs several fuzzing instances with *different* coverage
// metrics (edge, N-gram, context-sensitive, ...) and periodically
// cross-pollinates their corpora (Wang et al., RAID'19; EnFuzz-style). The
// alternative the paper advocates is *stacking*: one instance whose single
// metric composes the signals (e.g. laf-intel + N-gram) on one big BigMap.
// Ensembles keep each map small but split the exec budget and rely on
// syncing; stacking concentrates the budget but multiplies map pressure —
// which is exactly the trade BigMap was built to unlock.
//
// Members sync through a private dist.Hub, the same exchange parallel
// campaigns use. Members count coverage in different key spaces, so the
// hub's union means nothing here and is not reported.
package ensemble

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/bigmap/bigmap/internal/core"
	"github.com/bigmap/bigmap/internal/covreport"
	"github.com/bigmap/bigmap/internal/crash"
	"github.com/bigmap/bigmap/internal/dist"
	"github.com/bigmap/bigmap/internal/fuzzer"
	"github.com/bigmap/bigmap/internal/target"
)

// ErrNoMembers is returned when an ensemble has no member configurations.
var ErrNoMembers = errors.New("ensemble: need at least one member")

// Member is one ensemble slot: a named coverage metric driving its own
// fuzzing instance.
type Member struct {
	// Name labels the member in reports ("edge", "ngram3", ...).
	Name string
	// Metric builds the member's coverage metric.
	Metric fuzzer.MetricFactory
}

// DefaultMembers is the classic heterogeneous trio: plain edges, 3-gram
// partial paths, and context-sensitive edges.
func DefaultMembers() []Member {
	return []Member{
		{Name: "edge", Metric: func(size int) (core.Metric, error) { return core.NewEdgeMetric(size) }},
		{Name: "ngram3", Metric: func(size int) (core.Metric, error) { return core.NewNGramMetric(size, 3) }},
		{Name: "ctx-edge", Metric: func(size int) (core.Metric, error) { return core.NewContextMetric(size) }},
	}
}

// Config parameterizes an ensemble campaign.
type Config struct {
	// Members are the heterogeneous instances.
	Members []Member
	// SyncEvery is each member's exec budget per round (0 = 20,000).
	SyncEvery uint64
	// Fuzzer is the per-member template (Scheme, MapSize, Seed...). The
	// Metric field is overridden per member.
	Fuzzer fuzzer.Config
}

// Ensemble is a running heterogeneous campaign.
type Ensemble struct {
	members []Member
	fuzzers []*fuzzer.Fuzzer
	cfg     Config
	peers   []*dist.Worker // nil for a single member: nothing to sync
}

// New builds the member instances and dry-runs the shared seeds on each.
func New(prog *target.Program, cfg Config, seeds [][]byte) (*Ensemble, error) {
	if len(cfg.Members) == 0 {
		return nil, ErrNoMembers
	}
	if cfg.SyncEvery == 0 {
		cfg.SyncEvery = 20000
	}
	fuzzers := make([]*fuzzer.Fuzzer, len(cfg.Members))
	for i, m := range cfg.Members {
		fcfg := cfg.Fuzzer
		fcfg.Metric = m.Metric
		fcfg.Seed = fcfg.Seed*37 + uint64(i) + 1
		f, err := fuzzer.New(prog, fcfg)
		if err != nil {
			return nil, fmt.Errorf("member %s: %w", m.Name, err)
		}
		accepted := 0
		for _, s := range seeds {
			if err := f.AddSeed(s); err == nil {
				accepted++
			}
		}
		if accepted == 0 {
			return nil, fmt.Errorf("member %s: %w", m.Name, fuzzer.ErrNoSeeds)
		}
		fuzzers[i] = f
	}
	e := &Ensemble{members: cfg.Members, fuzzers: fuzzers, cfg: cfg}
	if len(fuzzers) < 2 {
		return e, nil
	}
	size := cfg.Fuzzer.MapSize
	if size == 0 {
		size = core.MapSize64K
	}
	hub, err := dist.NewHub(size, nil)
	if err != nil {
		return nil, err
	}
	for i, f := range fuzzers {
		w, err := dist.NewWorker(f, fmt.Sprintf("member-%d", i), hub, size)
		if err != nil {
			return nil, fmt.Errorf("member %s: %w", cfg.Members[i].Name, err)
		}
		e.peers = append(e.peers, w)
	}
	return e, nil
}

// RunExecs fuzzes until every member has executed at least perMember test
// cases, cross-pollinating between rounds. Members run concurrently within
// a round.
func (e *Ensemble) RunExecs(perMember uint64) error {
	for !e.allReached(perMember) {
		if err := e.round(); err != nil {
			return err
		}
		if err := e.sync(); err != nil {
			return err
		}
	}
	return nil
}

// RunFor fuzzes for roughly d of wall-clock time.
func (e *Ensemble) RunFor(d time.Duration) error {
	deadline := time.Now().Add(d)     //bigmap:nondeterministic-ok wall-clock API by contract
	for time.Now().Before(deadline) { //bigmap:nondeterministic-ok wall-clock API by contract
		if err := e.round(); err != nil {
			return err
		}
		if err := e.sync(); err != nil {
			return err
		}
	}
	return nil
}

func (e *Ensemble) round() error {
	errs := make([]error, len(e.fuzzers))
	var wg sync.WaitGroup
	for i, f := range e.fuzzers {
		wg.Add(1)
		go func(i int, f *fuzzer.Fuzzer) {
			defer wg.Done()
			errs[i] = f.RunExecs(e.cfg.SyncEvery)
		}(i, f)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// sync cross-pollinates new finds between members: every member pushes,
// then every member pulls. A find interesting under one metric is re-judged
// under each peer's own metric, as ensemble fuzzers do when importing from a
// shared corpus.
func (e *Ensemble) sync() error {
	for _, w := range e.peers {
		if _, err := w.Push(); err != nil {
			return err
		}
	}
	for _, w := range e.peers {
		if _, err := w.Pull(); err != nil {
			return err
		}
	}
	return nil
}

func (e *Ensemble) allReached(perMember uint64) bool {
	for _, f := range e.fuzzers {
		if f.Execs() < perMember {
			return false
		}
	}
	return true
}

// Members returns the per-member fuzzers, index-aligned with the configured
// members.
func (e *Ensemble) Members() []*fuzzer.Fuzzer { return e.fuzzers }

// Report aggregates the ensemble's outcome. Because members count coverage
// in different key spaces, the union coverage is measured with the bias-free
// exact coverage build over the combined corpus (§V-A3 methodology).
type Report struct {
	// TotalExecs sums executions across members.
	TotalExecs uint64
	// PerMember pairs member names with their stats.
	PerMember []MemberStats
	// UnionExactEdges is the exact-edge coverage of all corpora combined.
	UnionExactEdges int
	// UniqueCrashes is the Crashwalk union across members.
	UniqueCrashes int
}

// MemberStats is one member's contribution.
type MemberStats struct {
	Name  string
	Stats fuzzer.Stats
}

// Report measures the ensemble. prog must be the campaign's target (needed
// for the exact coverage replay).
func (e *Ensemble) Report(prog *target.Program) Report {
	rep := Report{}
	union := crash.NewDeduper()
	cov := covreport.New(prog, 0)
	for i, f := range e.fuzzers {
		st := f.Stats()
		rep.PerMember = append(rep.PerMember, MemberStats{Name: e.members[i].Name, Stats: st})
		rep.TotalExecs += st.Execs
		union.Merge(f.Crashes())
		for _, entry := range f.Queue().Entries() {
			cov.Add(entry.Input)
		}
	}
	rep.UnionExactEdges = cov.Edges()
	rep.UniqueCrashes = union.Unique()
	return rep
}
