package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"github.com/bigmap/bigmap/internal/fuzzer"
	"github.com/bigmap/bigmap/internal/serve"
	"github.com/bigmap/bigmap/internal/telemetry"
)

// pollEvery is how often the status of every hosted campaign is read.
const pollEvery = 10 * time.Millisecond

// maxBatchSeconds fails a batch whose campaigns do not all finish.
const maxBatchSeconds = 120

// hostedBatch submits a closed batch of campaigns from two tenants to a
// serve daemon with one worker and waits for all of them to finish.
type hostedBatch struct {
	bench     string
	scale     float64
	mapSize   int
	campaigns int
	instances int
	syncEvery uint64
	rounds    int
}

func (b hostedBatch) budget() map[string]any {
	return map[string]any{
		"bench": b.bench, "scale": b.scale, "scheme": fuzzer.SchemeBigMap, "map_size": b.mapSize,
		"campaigns": b.campaigns, "tenants": 2, "workers": 1, "instances": b.instances,
		"sync_every": b.syncEvery, "rounds_per_campaign": b.rounds, "poll_every_ms": pollEvery.Milliseconds(),
	}
}

func (b hostedBatch) scaled(f float64) runner {
	b.rounds = scale(b.rounds, f)
	return b
}

// hosted is the benchmark's view of one submitted campaign.
type hosted struct {
	id      string
	submit  time.Time
	done    time.Time
	polled  time.Time
	running time.Duration // polled time spent in the running state
	info    *serve.Info
}

// run submits the batch and polls until every campaign is terminal. The
// set-up samples are the Submit calls (target generation, campaign
// construction, seed dry-run, round-0 checkpoint); the campaign latencies
// run from each Submit call to its campaign's terminal state.
func (b hostedBatch) run(seed uint64, rec *recorder) (u trial, err error) {
	u.lanes = float64(b.instances)
	dir, err := os.MkdirTemp("", "serve-")
	if err != nil {
		return u, err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(dir)) }()
	d, err := serve.Open(serve.Config{Dir: dir, Workers: 1})
	if err != nil {
		return u, err
	}
	defer func() { err = errors.Join(err, d.Close()) }()

	start, mark := time.Now(), rec.mark()
	var hs []*hosted
	for i := 0; i < b.campaigns; i++ {
		u.attempted++
		h := &hosted{submit: time.Now()}
		sp := rec.begin("serve.submit")
		info, err := d.Submit(context.Background(), serve.SubmitRequest{
			Tenant: fmt.Sprintf("tenant-%d", i%2),
			Spec: serve.Spec{
				Bench: b.bench, Scale: b.scale, Scheme: string(fuzzer.SchemeBigMap), MapSize: b.mapSize,
				Seed: subSeed(seed, i), Instances: b.instances, SyncEvery: b.syncEvery, Rounds: b.rounds,
			},
		})
		rec.end(sp)
		u.setups = append(u.setups, time.Since(h.submit).Seconds())
		if err != nil {
			u.failed++
			continue
		}
		h.id, h.polled = info.ID, time.Now()
		hs = append(hs, h)
	}
	if err := b.await(d, hs, start, rec); err != nil {
		return u, err
	}

	prog, err := generate(b.bench, b.scale)
	if err != nil {
		return u, err
	}
	r := newReplayer(prog)
	var last time.Time
	var paths, crashes []float64
	l := layers{}
	for _, h := range hs {
		info := h.info
		u.latencies = append(u.latencies, h.done.Sub(h.submit).Seconds())
		if h.done.After(last) {
			last = h.done
		}
		u.failed += info.Restarts
		if info.State != serve.StateFinished || info.Rounds != b.rounds || info.Stats == nil {
			u.failed++
			u.problems = append(u.problems, fmt.Errorf("campaign %s ended %s at round %d of %d", h.id, info.State, info.Rounds, b.rounds))
			continue
		}
		st := info.Stats
		u.failed += st.FailedInstances
		u.execs += float64(st.Execs)
		u.edges += float64(st.Edges)
		u.digest += fmt.Sprintf("%s:%d/%d/%d/%d;", h.id, st.Execs, st.Edges, st.Paths, st.UniqueCrashes)
		buckets, err := d.Crashes(h.id)
		if err != nil {
			return u, err
		}
		for _, bk := range buckets {
			if err := r.crash(bk.Input, bk.Site, bk.Key); err != nil {
				u.problems = append(u.problems, fmt.Errorf("campaign %s: %w", h.id, err))
			}
		}
		paths = append(paths, float64(st.Paths))
		crashes = append(crashes, float64(st.UniqueCrashes))
		if rec != nil {
			reg, err := d.Registry(h.id)
			if err != nil {
				return u, err
			}
			snap := reg.Snapshot()
			l.addFuzzer(delta{telemetry.Snapshot{}, snap}, string(fuzzer.SchemeBigMap))
			l["round_n"] += float64(snap.Counters["campaign_rounds_total"])
			l["round_ns"] += float64(h.running.Nanoseconds())
			l["queue_wait_ns"] += float64((h.done.Sub(h.submit) - h.running).Nanoseconds())
			l["campaign_ns"] += float64(h.done.Sub(h.submit).Nanoseconds())
		}
	}
	u.wall = last.Sub(start).Seconds()
	if rec != nil {
		l["submit_ns"] = rec.since(mark, "serve.submit")
		l["paths"] = median(paths)
		l["crashes"] = median(crashes)
		u.layers = l
	}
	return u, nil
}

// await polls every campaign until all are terminal, accumulating the time
// each spends running.
func (b hostedBatch) await(d *serve.Daemon, hs []*hosted, start time.Time, rec *recorder) error {
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	for pending := len(hs); pending > 0; {
		if time.Since(start).Seconds() > maxBatchSeconds {
			return fmt.Errorf("%d of %d campaigns unfinished after %d s", pending, len(hs), maxBatchSeconds)
		}
		<-tick.C
		for _, h := range hs {
			if h.info != nil && h.info.State.Terminal() {
				continue
			}
			info, err := d.Get(h.id)
			if err != nil {
				return err
			}
			now := time.Now()
			if h.info != nil && h.info.State == serve.StateRunning {
				h.running += now.Sub(h.polled)
			}
			h.info, h.polled = info, now
			if info.State.Terminal() {
				h.done = now
				pending--
				rec.add("serve.campaign", h.submit, now)
			}
		}
	}
	return nil
}
