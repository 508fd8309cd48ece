package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"github.com/bigmap/bigmap/internal/checkpoint"
	"github.com/bigmap/bigmap/internal/fuzzer"
	"github.com/bigmap/bigmap/internal/rng"
	"github.com/bigmap/bigmap/internal/target"
	"github.com/bigmap/bigmap/internal/telemetry"
)

// seedCorpus is the synthesized seed corpus size of every campaign, the
// bigmap-fuzz default.
const seedCorpus = 16

// single is a workload of one fuzzing instance driven Step by Step to a
// fixed exec budget.
type single struct {
	bench   string
	scale   float64
	scheme  fuzzer.Scheme
	mapSize int
	execs   uint64
}

func (s single) budget() map[string]any {
	return map[string]any{
		"bench": s.bench, "scale": s.scale, "scheme": s.scheme, "map_size": s.mapSize,
		"seed_corpus": seedCorpus, "execs_per_campaign": s.execs, "setups_per_campaign": setupReps,
	}
}

func (s single) scaled(f float64) runner {
	s.execs = scale(s.execs, f)
	return s
}

// run builds one campaign from seed and fuzzes it to the budget. Set-up is
// target generation, construction and the seed dry-run; it is repeated
// setupReps times and the last campaign built is fuzzed.
func (s single) run(seed uint64, rec *recorder) (trial, error) {
	var u trial
	u.lanes = 1
	var reg *telemetry.Registry
	if rec != nil {
		reg = telemetry.New()
	}
	var prog *target.Program
	var f *fuzzer.Fuzzer
	var setup time.Duration
	for i := 0; i < setupReps; i++ {
		prog, f = nil, nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if prog, err = generate(s.bench, s.scale); err != nil {
			return u, err
		}
		if f, err = fuzzer.New(prog, fuzzer.Config{Scheme: s.scheme, MapSize: s.mapSize, Seed: seed, Telemetry: reg}); err != nil {
			return u, err
		}
		if err := addSeeds(f, prog); err != nil {
			return u, err
		}
		setup = time.Since(t0)
		u.setups = append(u.setups, setup.Seconds())
	}

	before, mark := reg.Snapshot(), rec.mark()
	start := time.Now()
	first := f.Execs()
	for f.Execs() < first+s.execs {
		u.attempted++
		sp := rec.begin("fuzzer.step")
		err := f.Step()
		rec.end(sp)
		if err != nil {
			u.failed++
			break
		}
	}
	wall := time.Since(start)
	u.latencies = []float64{(setup + wall).Seconds()}
	st := f.Stats()
	u.execs = float64(f.Execs() - first)
	u.wall = wall.Seconds()
	u.edges = float64(st.EdgesDiscovered)
	u.digest = digest(checkpoint.EncodeFuzzer(f.Snapshot()))
	u.problems = checkFuzzer(prog, f)
	if rec != nil {
		l := layers{}
		l.addFuzzer(delta{before, reg.Snapshot()}, string(s.scheme))
		l["step_ns"] = rec.since(mark, "fuzzer.step")
		l["step_n"] = float64(u.attempted)
		l["paths"] = float64(st.Paths)
		l["favored"] = float64(f.Queue().FavoredCount())
		l["used_keys"] = float64(st.UsedKeys)
		l["crashes"] = float64(st.UniqueCrashes)
		u.layers = l
	}
	return u, nil
}

// generate builds a profile's synthetic target at a scale.
func generate(bench string, scale float64) (*target.Program, error) {
	p, ok := target.ProfileByName(bench)
	if !ok {
		return nil, fmt.Errorf("unknown profile %q", bench)
	}
	return target.Generate(p.Spec(scale))
}

// seedInputs is a workload's fixed seed corpus: the one bigmap-fuzz
// synthesizes at its default -seed 1. The benchmark seed varies only the
// fuzzers' randomness, as repeated trials of a fuzzer evaluation do; a seed
// corpus that changed with it would let the luck of one corpus swing every
// trial of a run the same way.
func seedInputs(prog *target.Program) [][]byte {
	return prog.SampleSeeds(rng.New(1^0x5eed), seedCorpus)
}

// addSeeds dry-runs the seed corpus.
func addSeeds(f *fuzzer.Fuzzer, prog *target.Program) error {
	accepted := 0
	for _, in := range seedInputs(prog) {
		if f.AddSeed(in) == nil {
			accepted++
		}
	}
	if accepted == 0 {
		return fuzzer.ErrNoSeeds
	}
	return nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
