package bench

import (
	"fmt"

	"github.com/bigmap/bigmap/internal/core"
	"github.com/bigmap/bigmap/internal/crash"
	"github.com/bigmap/bigmap/internal/executor"
	"github.com/bigmap/bigmap/internal/lafintel"
	"github.com/bigmap/bigmap/internal/rng"
	"github.com/bigmap/bigmap/internal/target"
)

// DedupBias demonstrates the paper's §V-A3 justification for using
// Crashwalk: AFL's built-in crash deduplication compares each crash against
// a global crash-coverage bitmap, so the number of "unique" crashes it
// reports depends on the map size — fewer collisions make more crashes
// distinguishable — while Crashwalk buckets (call stack + faulting address)
// are map-independent.
//
// The measurement is controlled: a fixed set of crashing inputs is
// synthesized once (by iteratively solving the target's comparison guards
// with the compare hook), then the SAME set is replayed under every map
// size. Only the counting changes, which isolates the bias the paper calls
// out ("inherently biased towards larger maps").
func DedupBias(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	names := opts.Benchmarks
	if len(names) == 0 {
		names = []string{"gvn"}
	}
	// Prefer the crash-rich Table III composition profiles; fall back to
	// Table II for names that only exist there.
	combined := append(target.Profiles(), target.CompositionProfiles()...)
	profiles, err := selectProfiles(combined, names)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "Dedup bias (§V-A3): AFL's coverage-based crash dedup vs Crashwalk",
		Notes: []string{
			"a fixed synthesized crash set is replayed under every map size;",
			"only the dedup method's counting differs — the Crashwalk column is",
			"map-independent by construction, the AFL column inflates with the map",
		},
		Header: []string{"benchmark", "map", "crash-inputs", "unique-crashwalk", "unique-afl"},
	}

	for _, p := range profiles {
		b, err := prepare(p, opts)
		if err != nil {
			return nil, err
		}
		prog, _ := lafintel.Transform(b.prog, opts.Seed)
		crashes := synthesizeCrashes(prog, 200, opts.Seed)
		if len(crashes) == 0 {
			return nil, fmt.Errorf("bench: no crashing inputs synthesizable for %s", p.Name)
		}
		opts.progressf("  dedup %-12s synthesized %d crashing inputs\n", p.Name, len(crashes))

		for _, size := range GridSizes {
			cw, afl, err := countUnique(prog, crashes, size)
			if err != nil {
				return nil, err
			}
			t.AddRow(p.Name, fmtSize(size), fmtInt(len(crashes)), fmtInt(cw), fmtInt(afl))
			opts.progressf("  dedup %-12s %-4s crashwalk=%d afl=%d\n", p.Name, fmtSize(size), cw, afl)
		}
	}
	return t, nil
}

// synthesizeCrashes builds a controlled corpus of crashing inputs with the
// target package's crash-witness generator (randomized branch-solving walks
// that solve crash-guard chains). Deterministic in seed.
func synthesizeCrashes(prog *target.Program, maxInputs int, seed uint64) [][]byte {
	src := rng.New(seed ^ 0xc4a54e5)
	interp := target.NewInterp(prog)
	var out [][]byte
	for attempt := 0; attempt < maxInputs*40 && len(out) < maxInputs; attempt++ {
		witness, ok := prog.SynthesizeCrashWitness(src)
		if !ok {
			continue
		}
		// The walk is an approximation (later writes can clobber earlier
		// constraints); keep only witnesses that actually crash.
		if interp.Run(witness, target.NopTracer{}, 1<<22).Status == target.StatusCrash {
			out = append(out, witness)
		}
	}
	return out
}

// countUnique replays the crash set under one map size and counts unique
// crashes both ways: AFL-style (classify + has_new_bits against a global
// crash-coverage virgin map) and Crashwalk-style (stack+site buckets).
func countUnique(prog *target.Program, crashes [][]byte, mapSize int) (crashwalk, aflStyle int, err error) {
	cov, err := core.NewBigMap(mapSize)
	if err != nil {
		return 0, 0, err
	}
	metric, err := core.NewEdgeMetric(mapSize)
	if err != nil {
		return 0, 0, err
	}
	exe, err := executor.New(prog, metric, cov, 1<<22)
	if err != nil {
		return 0, 0, err
	}
	virginCrash := cov.NewVirgin()
	dedup := crash.NewDeduper()

	for _, input := range crashes {
		cov.Reset()
		res := exe.Execute(input)
		if res.Status != target.StatusCrash {
			continue
		}
		if cov.ClassifyAndCompare(virginCrash) != core.VerdictNone {
			aflStyle++
		}
		dedup.Observe(res.CrashSite, res.Stack, nil)
	}
	return dedup.Unique(), aflStyle, nil
}
