package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/bigmap/bigmap"
	"github.com/bigmap/bigmap/internal/checkpoint"
	"github.com/bigmap/bigmap/internal/corpusd"
	"github.com/bigmap/bigmap/internal/dist"
	"github.com/bigmap/bigmap/internal/fuzzer"
	"github.com/bigmap/bigmap/internal/parallel"
	"github.com/bigmap/bigmap/internal/telemetry"
)

// storeCampaign is the corpusd campaign name every trial syncs through.
const storeCampaign = "bench"

// corpusdCampaign is a parallel campaign whose instances sync through a
// dist.Client talking HTTP to an in-process corpusd store with a durable
// state directory, checkpointing the campaign every few rounds.
type corpusdCampaign struct {
	bench           string
	scale           float64
	mapSize         int
	instances       int
	syncEvery       uint64
	rounds          int
	checkpointEvery int
}

func (c corpusdCampaign) budget() map[string]any {
	return map[string]any{
		"bench": c.bench, "scale": c.scale, "scheme": fuzzer.SchemeBigMap, "map_size": c.mapSize,
		"seed_corpus": seedCorpus, "instances": c.instances, "sync_every": c.syncEvery,
		"rounds_per_campaign": c.rounds, "checkpoint_every": c.checkpointEvery,
		"setups_per_campaign": setupReps,
	}
}

func (c corpusdCampaign) scaled(f float64) runner {
	c.rounds = scale(c.rounds, f)
	c.checkpointEvery = min(c.checkpointEvery, c.rounds)
	return c
}

// corpusdEnv is one set-up of a corpusd campaign: a store, its HTTP server,
// a client and the campaign syncing through it.
type corpusdEnv struct {
	prog  *bigmap.Program
	store *corpusd.Store
	srv   *httptest.Server
	sy    *syncer
	cfg   parallel.Config
	camp  *parallel.Campaign
}

// setUp builds a store under dir, serves it and constructs a campaign with
// its seed dry-run. On error everything it started is stopped.
func (c corpusdCampaign) setUp(dir string, seed uint64, reg, storeReg *telemetry.Registry, rec *recorder) (e *corpusdEnv, err error) {
	e = &corpusdEnv{}
	if e.prog, err = generate(c.bench, c.scale); err != nil {
		return nil, err
	}
	if e.store, err = corpusd.New(dir, storeReg); err != nil {
		return nil, err
	}
	e.srv = httptest.NewServer(e.store.Handler())
	defer func() {
		if err != nil {
			err = errors.Join(err, e.close())
		}
	}()
	client, err := dist.NewClient(e.srv.URL, storeCampaign)
	if err != nil {
		return e, err
	}
	if err := client.EnsureCampaign(c.mapSize); err != nil {
		return e, err
	}
	e.sy = &syncer{inner: client, rec: rec, reg: reg}
	e.cfg = parallel.Config{
		Instances: c.instances,
		SyncEvery: c.syncEvery,
		Syncer:    e.sy,
		Worker:    storeCampaign,
		Fuzzer:    fuzzer.Config{Scheme: fuzzer.SchemeBigMap, MapSize: c.mapSize, Seed: seed, Telemetry: reg},
	}
	e.camp, err = parallel.NewCampaign(e.prog, e.cfg, seedInputs(e.prog))
	return e, err
}

func (e *corpusdEnv) close() error {
	e.srv.Close()
	return e.store.Close()
}

// run sets up a store, its HTTP server and a campaign setupReps times, then
// runs the last campaign's rounds. Set-up covers all of it up to the seed
// dry-run.
func (c corpusdCampaign) run(seed uint64, rec *recorder) (u trial, err error) {
	u.lanes = float64(c.instances)
	dir, err := os.MkdirTemp("", "corpusd-")
	if err != nil {
		return u, err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(dir)) }()

	var reg, storeReg *telemetry.Registry
	var e *corpusdEnv
	var setup time.Duration
	for i := 0; i < setupReps; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return u, err
			}
			e = nil
		}
		if rec != nil {
			reg, storeReg = telemetry.New(), telemetry.New()
		}
		runtime.GC()
		t0 := time.Now()
		if e, err = c.setUp(filepath.Join(dir, fmt.Sprintf("store-%d", i)), seed, reg, storeReg, rec); err != nil {
			return u, err
		}
		setup = time.Since(t0)
		u.setups = append(u.setups, setup.Seconds())
	}
	defer func() { err = errors.Join(err, e.close()) }()
	prog, store, sy, cfg, camp := e.prog, e.store, e.sy, e.cfg, e.camp
	client := sy.inner

	l := layers{}
	before, storeBefore, mark := reg.Snapshot(), storeReg.Snapshot(), rec.mark()
	first := camp.Report().TotalExecs
	start := time.Now()
	var chkPath string
	rounds := 0
	for r := 1; r <= c.rounds; r++ {
		u.attempted++
		sp := rec.begin("parallel.round")
		err := camp.RunRounds(1)
		rec.end(sp)
		if err != nil {
			u.failed++
			break
		}
		rounds++
		sy.endRound(l, string(fuzzer.SchemeBigMap))
		if r%c.checkpointEvery == 0 {
			u.attempted++
			chkPath = filepath.Join(dir, fmt.Sprintf("campaign-%d.bm", r))
			sp := rec.begin("checkpoint.save")
			err := bigmap.SaveCampaignCheckpoint(chkPath, camp)
			rec.end(sp)
			if err != nil {
				u.failed++
				chkPath = ""
			}
		}
	}
	wall := time.Since(start)
	after, storeAfter := reg.Snapshot(), storeReg.Snapshot()
	rep := camp.Report()
	u.execs = float64(rep.TotalExecs - first)
	u.wall = wall.Seconds()
	u.latencies = []float64{(setup + wall).Seconds()}
	u.attempted += sy.attempted
	u.failed += sy.failed + rep.Restarts + rep.FailedInstances
	stats, err := store.Stats(storeCampaign)
	if err != nil {
		return u, err
	}

	// Publish each instance's final coverage (the last pull may have
	// imported edges after the last push), so the store union is the
	// campaign's coverage.
	for i, f := range camp.Instances() {
		u.attempted++
		w, err := dist.NewWorker(f, fmt.Sprintf("%s-%d", storeCampaign, i), client, c.mapSize)
		if err == nil {
			_, err = w.Push()
		}
		if err != nil {
			u.failed++
		}
	}
	final, err := store.Stats(storeCampaign)
	if err != nil {
		return u, err
	}
	u.edges = float64(final.UnionDiscovered)
	if final.UnionDiscovered < rep.MaxEdges {
		u.problems = append(u.problems, fmt.Errorf("store union %d edges < best instance %d", final.UnionDiscovered, rep.MaxEdges))
	}
	tail, err := checkStore(store, prog, camp, &u)
	if err != nil {
		return u, err
	}
	u.digest = tail + digest(checkpoint.EncodeCampaign(camp.Snapshot()))
	if chkPath == "" {
		u.problems = append(u.problems, errors.New("no campaign checkpoint was saved"))
	} else if err := checkResume(chkPath, prog, cfg); err != nil {
		u.problems = append(u.problems, err)
	}

	if rec != nil {
		l.addFuzzer(delta{before, after}, string(fuzzer.SchemeBigMap))
		l["round_ns"] = rec.since(mark, "parallel.round")
		l["round_n"] = float64(rounds)
		l["push_ns"] = rec.since(mark, "dist.push")
		l["pull_ns"] = rec.since(mark, "dist.pull")
		l["chk_ns"] = rec.since(mark, "checkpoint.save")
		l["corpusd_ns"] = delta{storeBefore, storeAfter}.ns("corpusd_sync_ns")
		l["pushed"], l["dups"], l["pulled"] = float64(sy.pushed), float64(sy.dups), float64(sy.pulled)
		l["delta_words"] = float64(sy.deltaWords)
		l["ledger_records"] = float64(stats.Batches)
		if fi, err := os.Stat(chkPath); err == nil {
			l["chk_bytes"] = float64(fi.Size())
		}
		l["crashes"] = float64(rep.UniqueCrashes)
		for i, st := range rep.PerInstance {
			if st.Paths > int(l["paths"]) {
				l["paths"] = float64(st.Paths)
				l["favored"] = float64(camp.Instances()[i].Queue().FavoredCount())
			}
			l["used_keys"] = max(l["used_keys"], float64(st.UsedKeys))
		}
		u.layers = l
	}
	return u, nil
}

// checkStore verifies the store's ledger chain, replays every stored crash
// bucket and a sample of each instance's queue, and returns the ledger tail
// hash.
func checkStore(store *corpusd.Store, prog *bigmap.Program, camp *parallel.Campaign, u *trial) (string, error) {
	records, err := store.Ledger(storeCampaign)
	if err != nil {
		return "", err
	}
	tail, err := corpusd.VerifyChain(records, "")
	if err != nil {
		u.problems = append(u.problems, err)
	}
	crashes, err := store.Crashes(storeCampaign)
	if err != nil {
		return "", err
	}
	r := newReplayer(prog)
	for _, cr := range crashes {
		if err := r.crash(cr.Input, cr.Site, cr.Key); err != nil {
			u.problems = append(u.problems, err)
		}
	}
	for _, f := range camp.Instances() {
		u.problems = append(u.problems, r.queue(f.Queue().Entries())...)
	}
	return tail, nil
}

// checkResume loads the last campaign checkpoint, resumes it without the
// store, checks that the resumed state is the checkpointed one, and runs one
// more round on it.
func checkResume(path string, prog *bigmap.Program, cfg parallel.Config) error {
	st, err := bigmap.LoadCampaignCheckpoint(path)
	if err != nil {
		return fmt.Errorf("load checkpoint: %w", err)
	}
	cfg.Syncer = nil
	cfg.Fuzzer.Telemetry = nil
	resumed, err := bigmap.ResumeCampaign(prog, cfg, st)
	if err != nil {
		return fmt.Errorf("resume checkpoint: %w", err)
	}
	if !bytes.Equal(checkpoint.EncodeCampaign(resumed.Snapshot()), checkpoint.EncodeCampaign(st)) {
		return errors.New("resumed campaign differs from its checkpoint")
	}
	if err := resumed.RunRounds(1); err != nil {
		return fmt.Errorf("resumed campaign: %w", err)
	}
	return nil
}
