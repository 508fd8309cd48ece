package bench

import (
	"github.com/bigmap/bigmap/internal/fuzzer"
	"github.com/bigmap/bigmap/internal/target"
)

// Schedules compares AFLFast power schedules (related work [16]) on top of
// BigMap at equal exec budgets — demonstrating the paper's claim that the
// map scheme is orthogonal to seed scheduling: any schedule composes with
// BigMap, and the map's efficiency is unaffected by the scheduler choice.
func Schedules(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	names := opts.Benchmarks
	if len(names) == 0 {
		names = []string{"libxml2"}
	}
	profiles, err := selectProfiles(target.Profiles(), names)
	if err != nil {
		return nil, err
	}

	schedules := []fuzzer.PowerSchedule{
		fuzzer.ScheduleExploit,
		fuzzer.ScheduleFast,
		fuzzer.ScheduleExplore,
		fuzzer.ScheduleCOE,
		fuzzer.ScheduleLin,
		fuzzer.ScheduleQuad,
	}

	t := &Table{
		Title: "Power schedules (AFLFast family) on BigMap @ 2MB",
		Notes: []string{
			"equal exec budgets; schedules reallocate energy, the map is unaffected",
		},
		Header: []string{"benchmark", "schedule", "edges", "paths", "crashes"},
	}

	for _, p := range profiles {
		b, err := prepare(p, opts)
		if err != nil {
			return nil, err
		}
		for _, s := range schedules {
			f, _, err := b.run(b.prog, fuzzer.Config{Scheme: fuzzer.SchemeBigMap, MapSize: 2 << 20, Schedule: s})
			if err != nil {
				return nil, err
			}
			st := f.Stats()
			t.AddRow(p.Name, string(s), fmtInt(st.EdgesDiscovered), fmtInt(st.Paths),
				fmtInt(st.UniqueCrashes))
			opts.progressf("  schedules %-10s %-8s edges=%d paths=%d\n",
				p.Name, s, st.EdgesDiscovered, st.Paths)
		}
	}
	return t, nil
}
