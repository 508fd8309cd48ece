package fuzzer

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"github.com/bigmap/bigmap/internal/checkpoint"
	"github.com/bigmap/bigmap/internal/core"
	"github.com/bigmap/bigmap/internal/rng"
	"github.com/bigmap/bigmap/internal/target"
)

// The campaign pins fix the sha256 of the encoded checkpoint after a fixed
// campaign: queue, virgin maps, crash buckets, both RNG streams and the
// adaptive operator counters. They were recorded from the sequential havoc
// loop, so any change to how havoc mutants are produced or consumed that
// alters a single mutant, RNG draw or coverage decision fails them.

// profileTarget generates a Table II profile at a scale.
func profileTarget(t testing.TB, bench string, scale float64) *target.Program {
	t.Helper()
	p, ok := target.ProfileByName(bench)
	if !ok {
		t.Fatalf("no %s profile", bench)
	}
	prog, err := target.Generate(p.Spec(scale))
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// newProfileFuzzer builds an instance over prog and dry-runs the benchmark
// workloads' fixed 16-input seed corpus.
func newProfileFuzzer(t testing.TB, prog *target.Program, cfg Config) *Fuzzer {
	t.Helper()
	f, err := New(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range prog.SampleSeeds(rng.New(1^0x5eed), 16) {
		_ = f.AddSeed(in) // crashing or hanging seeds are rejected; fine
	}
	if f.Queue().Len() == 0 {
		t.Fatal("no seeds accepted")
	}
	return f
}

func checkpointDigest(f *Fuzzer) string {
	sum := sha256.Sum256(checkpoint.EncodeFuzzer(f.Snapshot()))
	return hex.EncodeToString(sum[:])
}

// scriptedClock is a RunFor clock that reads start for its first n calls
// and start+1h afterwards, so a deadline cuts a campaign at an exact
// deadline check instead of at a wall-clock moment.
type scriptedClock struct {
	start    time.Time
	n        int
	calls    int
	onExpire func() // if set, runs at the first call that reads start+1h
}

func (c *scriptedClock) now() time.Time {
	c.calls++
	if c.calls <= c.n {
		return c.start
	}
	if c.calls == c.n+1 && c.onExpire != nil {
		c.onExpire()
	}
	return c.start.Add(time.Hour)
}

func TestGoldenCampaignPins(t *testing.T) {
	cases := []struct {
		name     string
		bench    string
		scale    float64
		cfg      Config
		execs    uint64
		cutCheck int  // > 0: then RunFor, cut at this havoc deadline check
		long     bool // skipped in -short mode (minutes under the race detector)
		want     string
	}{
		{name: "libpng-bigmap8M", bench: "libpng", scale: 0.05,
			cfg: Config{Scheme: SchemeBigMap, MapSize: core.MapSize8M, Seed: 1}, execs: 60000,
			want: "669deaaffc11c59d3fa20915706ada5d920bb5d544317b72da30a05af202e156"},
		{name: "sqlite3-bigmap8M", bench: "sqlite3", scale: 0.25,
			cfg: Config{Scheme: SchemeBigMap, MapSize: core.MapSize8M, Seed: 2}, execs: 20000,
			want: "10773774249c51d86ffc8cce05b4b20431110de4ab0c5bb842bd1f6ef0c96fea"},
		{name: "libpng-afl8M", bench: "libpng", scale: 0.25,
			cfg: Config{Scheme: SchemeAFL, MapSize: core.MapSize8M, Seed: 3}, execs: 1500, long: true,
			want: "52202ac35cf393e96dbcc269dbca8fb2e53cceee19ad803105a6613e73e3f686"},
		{name: "libpng-bigmap8M-adaptive", bench: "libpng", scale: 0.05,
			cfg: Config{Scheme: SchemeBigMap, MapSize: core.MapSize8M, Seed: 4, AdaptiveHavoc: true}, execs: 30000,
			want: "9e8ed0451fd2b00085f34b8be9bb43bc84fa3587835be627404f80d957709678"},
		{name: "libpng-bigmap8M-runfor-cut", bench: "libpng", scale: 0.05,
			cfg: Config{Scheme: SchemeBigMap, MapSize: core.MapSize8M, Seed: 5}, execs: 20000, cutCheck: 3,
			want: "77d15b58f3736d25a90646b3d8a4f95b46ed2fbe186b91f8be3e16c0279d77ac"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.long && testing.Short() {
				t.Skip("flat 8M map: minutes under the race detector")
			}
			f := newProfileFuzzer(t, profileTarget(t, c.bench, c.scale), c.cfg)
			if err := f.RunExecs(c.execs); err != nil {
				t.Fatal(err)
			}
			if c.cutCheck > 0 {
				cutMidHavoc(t, f, c.cutCheck)
			}
			if got := checkpointDigest(f); got != c.want {
				t.Errorf("checkpoint sha256 = %s, want %s", got, c.want)
			}
		})
	}
}

// cutMidHavoc runs one RunFor whose deadline passes at the check-th havoc
// deadline check of its first Step, and asserts the cut landed there: the
// round stopped after check*64-1 havoc mutants, short of the stage's end.
func cutMidHavoc(t *testing.T, f *Fuzzer, check int) {
	t.Helper()
	cutMidHavocWhile(t, f, check, nil)
}

// cutMidHavocWhile is cutMidHavoc with onExpire run on the fuzzer goroutine
// just before the expiring deadline check returns.
func cutMidHavocWhile(t *testing.T, f *Fuzzer, check int, onExpire func()) {
	t.Helper()
	// Calls 1 and 2 are RunFor's deadline and loop check; the next
	// check-1 are havoc checks that pass; the check-th one expires.
	clock := &scriptedClock{start: time.Unix(0, 0), n: 2 + check - 1, onExpire: onExpire}
	f.now = clock.now
	before := f.Execs()
	if err := f.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	f.now = time.Now
	// The expired check, then RunFor's loop check: nothing else read the
	// clock, so no splice check and no second Step ran.
	if clock.calls != clock.n+2 {
		t.Fatalf("clock read %d times, want %d: the cut did not land in the first havoc stage", clock.calls, clock.n+2)
	}
	if ran := f.Execs() - before; ran < uint64(check*64-1) {
		t.Fatalf("RunFor ran %d execs, want at least %d havoc mutants before the cut", ran, check*64-1)
	}
}
