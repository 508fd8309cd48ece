// Package fuzzer implements the coverage-guided evolutionary loop of AFL
// (paper §II-A, Figure 1) on top of the executor, mutation, corpus and crash
// packages. The loop is scheme-agnostic: it drives whatever coverage map the
// configuration selects, which is how the harness compares AFL's flat bitmap
// against BigMap under otherwise identical seed scheduling and mutation.
package fuzzer

import (
	"fmt"
	"time"

	"github.com/bigmap/bigmap/internal/cmplog"
	"github.com/bigmap/bigmap/internal/core"
	"github.com/bigmap/bigmap/internal/corpus"
	"github.com/bigmap/bigmap/internal/crash"
	"github.com/bigmap/bigmap/internal/executor"
	"github.com/bigmap/bigmap/internal/mutation"
	"github.com/bigmap/bigmap/internal/rng"
	"github.com/bigmap/bigmap/internal/target"
	"github.com/bigmap/bigmap/internal/telemetry"
)

// Fuzzer is one fuzzing instance: one target, one coverage map, one seed
// pool. Not safe for concurrent use; parallel campaigns run one Fuzzer per
// goroutine (package parallel).
type Fuzzer struct {
	cfg  Config
	cov  core.Map
	exec *executor.Executor

	virginAll   *core.Virgin
	virginCrash *core.Virgin
	virginHang  *core.Virgin

	queue   *corpus.Queue
	mut     *mutation.Mutator
	src     *rng.Source
	crashes *crash.Deduper
	cmp     *cmplog.Collector
	paths   *pathStats
	pipe    *havocPipe // the havoc stage's pipeline, built on first use

	execs          uint64
	deadline       time.Time        // non-zero during RunFor: abort stages when reached
	now            func() time.Time // wall clock under Clock; swappable in tests
	cyclesDone     int
	totalCrashes   uint64
	totalHangs     uint64
	aflUniqueCrash int
	queuePos       int
	touchedScratch []uint32
	sumCycles      uint64 // across queue entries, for perf scoring
	sumEdges       uint64
	rejectedSeeds  int

	// Calibration & fault-robustness state (Config.CalibrationRuns > 0).
	varSlots        map[uint32]bool // coverage slots calibration found unstable
	calibExecs      uint64          // executions spent on calibration and verification
	spuriousCrashes uint64          // one-off crash verdicts quarantined
	spuriousHangs   uint64          // one-off hang verdicts quarantined

	// testMutants, when set, replaces mut as the havoc pipeline's generator
	// (a test seam; it must share mut's RNG source).
	testMutants mutantSource

	// tel holds the optional observability handles (telemetry.go); the zero
	// value is the disabled fast path.
	tel telemetryHooks
}

// New creates a fuzzing instance for prog.
func New(prog *target.Program, cfg Config) (*Fuzzer, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	cov, err := cfg.Scheme.NewMapSlots(cfg.MapSize, cfg.SlotCap)
	if err != nil {
		return nil, fmt.Errorf("map scheme %q: %w", cfg.Scheme, err)
	}
	metric, err := cfg.Metric(cfg.MapSize)
	if err != nil {
		return nil, fmt.Errorf("metric: %w", err)
	}
	if prog == nil {
		return nil, executor.ErrNilDependency
	}
	var runner target.Runner = target.NewInterp(prog)
	if cfg.Faults != nil {
		runner = target.NewFaulty(prog, *cfg.Faults)
	}
	exe, err := executor.NewWithRunner(runner, metric, cov, cfg.ExecBudget)
	if err != nil {
		return nil, err
	}
	src := rng.New(cfg.Seed ^ 0xf022a11)
	mut := mutation.New(src.Split(), cfg.Dict)
	var collector *cmplog.Collector
	if cfg.EnableCmpLog {
		collector = cmplog.NewCollector(prog, cfg.ExecBudget, 0)
	}
	var paths *pathStats
	if cfg.Schedule != "" && cfg.Schedule != ScheduleExploit {
		paths = newPathStats()
	}
	f := &Fuzzer{
		cfg:         cfg,
		cov:         cov,
		exec:        exe,
		virginAll:   cov.NewVirgin(),
		virginCrash: cov.NewVirgin(),
		virginHang:  cov.NewVirgin(),
		queue:       corpus.NewQueue(),
		mut:         mut,
		src:         src,
		crashes:     crash.NewDeduper(),
		cmp:         collector,
		paths:       paths,
		// Sized to the map's initial slot capacity so steady-state enqueues
		// never grow it (AppendTouched returns at most UsedKeys entries).
		touchedScratch: make([]uint32, 0, 4096),
		varSlots:       make(map[uint32]bool),
		tel:            newTelemetryHooks(cfg.Telemetry, cov),
		// The clock feeds only Clock and so the RunFor deadline; nothing
		// resume-relevant reads it. The field indirection keeps this the
		// sole wall-clock site in the package.
		now: time.Now, //bigmap:nondeterministic-ok sole audited clock source: Clock and the RunFor deadline only
	}
	return f, nil
}

// Map exposes the coverage map (for harness inspection).
func (f *Fuzzer) Map() core.Map { return f.cov }

// Telemetry returns the instance's observability registry, nil when
// telemetry was not configured. Callers layering their own timings (e.g.
// checkpoint I/O around a single-threaded instance) record into it.
func (f *Fuzzer) Telemetry() *telemetry.Registry { return f.cfg.Telemetry }

// Queue exposes the seed pool (for harness inspection and corpus sync).
func (f *Fuzzer) Queue() *corpus.Queue { return f.queue }

// Crashes exposes the Crashwalk-style deduper.
func (f *Fuzzer) Crashes() *crash.Deduper { return f.crashes }

// AddSeed runs one user-provided seed and enqueues it. Mirroring AFL's
// startup behaviour, seeds enter the queue whether or not they add coverage,
// but crashing or hanging seeds are rejected.
func (f *Fuzzer) AddSeed(input []byte) error {
	res, _ := f.runOne(input, nil) // seeds are enqueued regardless of verdict
	switch res.Status {
	case target.StatusCrash, target.StatusHang:
		f.rejectedSeeds++
		return fmt.Errorf("fuzzer: seed %s during dry run", res.Status)
	default:
	}
	f.enqueue(input, res, "seed", 0)
	return nil
}

// AddSeeds dry-runs a seed corpus through AddSeed and returns how many
// seeds were accepted. It fails, wrapping ErrNoSeeds, when none was.
func (f *Fuzzer) AddSeeds(seeds [][]byte) (accepted int, err error) {
	for _, s := range seeds {
		if f.AddSeed(s) == nil {
			accepted++
		}
	}
	if accepted == 0 {
		return 0, fmt.Errorf("%w: none of %d seeds passed the dry run", ErrNoSeeds, len(seeds))
	}
	return accepted, nil
}

// RunExecs fuzzes until at least n test cases have been executed since the
// call. Returns ErrNoSeeds if the queue is empty.
func (f *Fuzzer) RunExecs(n uint64) error {
	stop := f.execs + n
	for f.execs < stop {
		if err := f.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Clock is the instance's virtual clock: wall time plus the execution time
// charged so far, Config.ExecCostNs for every target cycle the executor ran
// (seeds, imports and calibration runs included). With no charge it is the
// wall clock. The charge is not checkpointed, like wall time itself.
func (f *Fuzzer) Clock() time.Time { return f.now().Add(f.Charged()) }

// Charged is the execution time charged to the clock so far.
func (f *Fuzzer) Charged() time.Duration {
	return time.Duration(float64(f.exec.Cycles()) * f.cfg.ExecCostNs)
}

// RunFor fuzzes until d has passed on the instance's Clock. Unlike
// RunExecs, the deadline is also honoured inside a fuzz round (checked every
// few dozen executions), so slow configurations (large flat maps) cannot
// overshoot the budget by a whole round — that matters for fair time-budget
// comparisons like the scaling experiment.
func (f *Fuzzer) RunFor(d time.Duration) error {
	f.deadline = f.Clock().Add(d)
	defer func() { f.deadline = time.Time{} }()
	for f.Clock().Before(f.deadline) {
		if err := f.Step(); err != nil {
			return err
		}
	}
	return nil
}

// pastDeadline reports whether a RunFor deadline has been reached. The check
// is amortized: callers invoke it every few dozen executions.
func (f *Fuzzer) pastDeadline() bool {
	return !f.deadline.IsZero() && !f.Clock().Before(f.deadline)
}

// Step selects one queue entry (with AFL's favored-skip probabilities) and
// runs a full fuzz round on it: optional deterministic stages, havoc, and
// splice. One call executes hundreds to thousands of test cases.
func (f *Fuzzer) Step() error {
	if f.queue.Len() == 0 {
		return ErrNoSeeds
	}
	f.queue.Cull()
	e := f.selectEntry()
	if !e.WasTrimmed {
		t0 := f.tel.stageTrim.Start()
		f.trim(e)
		f.tel.stageTrim.Done(t0)
		e.WasTrimmed = true
	}
	f.fuzzEntry(e)
	e.WasFuzzed = true
	return nil
}

// selectEntry cycles through the queue applying AFL's skip probabilities:
// while favored entries are pending, non-favored ones are almost always
// skipped; afterwards they still fuzz rarely.
func (f *Fuzzer) selectEntry() *corpus.Entry {
	pending := f.queue.PendingFavored()
	for attempts := 0; attempts < 10*f.queue.Len(); attempts++ {
		if f.queuePos != 0 && f.queuePos%f.queue.Len() == 0 {
			f.cyclesDone++
		}
		e := f.queue.Get(f.queuePos % f.queue.Len())
		f.queuePos++
		if e.Favored {
			return e
		}
		var skipPct int
		switch {
		case pending > 0:
			skipPct = skipToNewPct
		case e.WasFuzzed:
			skipPct = skipNfavOldPct
		default:
			skipPct = skipNfavNewPct
		}
		if f.src.Intn(100) >= skipPct {
			return e
		}
	}
	return f.queue.Get(f.queuePos % f.queue.Len())
}

// fuzzEntry runs the mutation stages against one entry.
func (f *Fuzzer) fuzzEntry(e *corpus.Entry) {
	depth := e.Depth + 1

	if f.cmp != nil && !e.WasFuzzed {
		t0 := f.tel.stageCmplog.Start()
		f.cmpLogStage(e, depth)
		f.tel.stageCmplog.Done(t0)
	}

	if f.cfg.RunDeterministic && !e.WasFuzzed {
		t0 := f.tel.stageDet.Start()
		n := 0
		f.mut.Deterministic(e.Input, func(candidate []byte) bool {
			f.evaluate(candidate, nil, "det", depth)
			n++
			return n&255 != 255 || !f.pastDeadline()
		})
		f.tel.stageDet.Done(t0)
	}

	rounds := f.havocRounds(e)
	if f.paths != nil {
		factor := scheduleFactor(f.cfg.Schedule, e.FuzzLevel,
			f.paths.frequency(e.PathHash), f.paths.mean())
		rounds = rounds * factor / 4
		if factor > 0 && rounds < 8 {
			rounds = 8
		}
	}
	h0 := f.tel.stageHavoc.Start()
	completed := f.havocPipelined(e.Input, rounds, depth)
	f.tel.stageHavoc.Done(h0)
	e.FuzzLevel++
	if !completed {
		return
	}

	if f.queue.Len() > 1 {
		s0 := f.tel.stageSplice.Start()
		for i := 0; i < f.cfg.SpliceRounds; i++ {
			if i&15 == 15 && f.pastDeadline() {
				f.tel.stageSplice.Done(s0)
				return
			}
			other := f.queue.Get(f.src.Intn(f.queue.Len()))
			if other == e {
				continue
			}
			spliced := f.mut.Splice(e.Input, other.Input)
			if spliced == nil {
				continue
			}
			f.evaluate(f.mut.Havoc(spliced), nil, "splice", depth)
		}
		f.tel.stageSplice.Done(s0)
	}
}

// cmpLogStage collects the entry's failed comparisons and evaluates one
// targeted mutant per comparison, patching the wanted operand bytes into the
// input (input-to-state). The collection run costs one execution.
func (f *Fuzzer) cmpLogStage(e *corpus.Entry, depth int) {
	f.execs++ // the collection replay
	f.tel.execs.Inc()
	for _, p := range f.cmp.Collect(e.Input) {
		f.evaluate(cmplog.Apply(e.Input, p), nil, "cmplog", depth)
	}
}

// havocRounds computes a simplified AFL perf score: entries that are faster
// and cover more than the queue average earn more havoc rounds, favored
// entries likewise.
func (f *Fuzzer) havocRounds(e *corpus.Entry) int {
	rounds := f.cfg.HavocRounds
	n := uint64(f.queue.Len())
	if n > 0 {
		if avg := f.sumCycles / n; avg > 0 && e.Cycles < avg/2 {
			rounds *= 2
		}
		if avg := f.sumEdges / n; avg > 0 && uint64(e.EdgeCount) > avg*2 {
			rounds *= 2
		}
	}
	if e.Favored {
		rounds += rounds / 2
	}
	return rounds
}

// evaluate runs one candidate through the full coverage pipeline and files
// it (queue, crash bucket, hang) according to the fitness function. rec is
// the candidate's run as the havoc helper recorded it, or nil to execute it.
func (f *Fuzzer) evaluate(candidate []byte, rec *recordedRun, foundBy string, depth int) {
	res, verdict := f.runOne(candidate, rec)
	switch res.Status {
	case target.StatusOK:
		if verdict != core.VerdictNone {
			input := make([]byte, len(candidate))
			copy(input, candidate)
			f.enqueue(input, res, foundBy, depth)
		}
	case target.StatusCrash:
		f.totalCrashes++
		f.tel.crashes.Inc()
		if verdict != core.VerdictNone {
			f.aflUniqueCrash++
		}
		f.crashes.Observe(res.CrashSite, res.Stack, candidate)
	case target.StatusHang:
		f.totalHangs++
		f.tel.hangs.Inc()
	}
}

// runOne is the per-testcase pipeline of §II-A2: reset the map, execute,
// classify + compare against the appropriate virgin map, and (for
// interesting, non-crashing cases) hash. With calibration enabled the
// pipeline adds crash/hang verification (see runVerified); otherwise it is
// the merged fast path below, where a recorded run (rec non-nil; never with
// calibration, see newRecorder) is replayed instead of executed.
func (f *Fuzzer) runOne(input []byte, rec *recordedRun) (target.Result, core.Verdict) {
	if f.cfg.CalibrationRuns > 0 {
		return f.runVerified(input)
	}
	res := f.execute(input, rec)
	var verdict core.Verdict
	if f.cfg.SplitClassifyCompare {
		f.cov.Classify()
		verdict = f.cov.CompareWith(f.virginFor(res.Status))
	} else {
		verdict = f.cov.ClassifyAndCompare(f.virginFor(res.Status))
	}
	f.observePath()
	return res, verdict
}

// execute is the one counted execution: reset the map, run input (or replay
// its recorded run rec), count it. The map holds the raw trace afterwards.
func (f *Fuzzer) execute(input []byte, rec *recordedRun) target.Result {
	f.cov.Reset()
	e0 := f.tel.execNs.Start()
	var res target.Result
	if rec != nil {
		res = f.exec.Replay(rec.res, rec.keys)
	} else {
		res = f.exec.Execute(input)
	}
	f.tel.execNs.Done(e0)
	f.execs++
	f.tel.execs.Inc()
	return res
}

// execClassify executes input and classifies the trace, leaving the
// classified coverage in the map but deferring the virgin compare to the
// caller. This is the building block of the verification, calibration and
// trim paths, which must be able to re-run an input before deciding which
// virgin map (if any) the result may touch.
func (f *Fuzzer) execClassify(input []byte) target.Result {
	res := f.execute(input, nil)
	f.cov.Classify()
	return res
}

// virginFor selects the virgin map a run with the given status is compared
// against: crashes and hangs keep their own coverage, like AFL's
// virgin_crash and virgin_tmout.
func (f *Fuzzer) virginFor(status target.Status) *core.Virgin {
	switch status {
	case target.StatusCrash:
		return f.virginCrash
	case target.StatusHang:
		return f.virginHang
	}
	return f.virginAll
}

// observePath feeds AFLFast's n_fuzz accounting, which hashes every
// classified trace. The cost is the price of the schedule, as in the
// original.
func (f *Fuzzer) observePath() {
	if f.paths != nil {
		f.paths.observe(f.cov.Hash())
	}
}

// runVerified is the calibrating variant of runOne. Crash and hang verdicts
// are not believed on first sight: the input is re-executed once, and a
// verdict that does not reproduce is quarantined — counted as spurious, with
// the reproducing (clean) run's result taking its place — BEFORE any virgin
// map is consulted, so a one-off fault can neither enqueue a bogus crash nor
// burn novelty in the crash/hang virgin maps. Variable slots that
// calibration suppressed from virginAll can never produce a verdict here.
func (f *Fuzzer) runVerified(input []byte) (target.Result, core.Verdict) {
	res := f.execClassify(input)
	if res.Status != target.StatusOK {
		first := res.Status
		res = f.execClassify(input) // verification re-run
		f.calibExecs++
		f.tel.calibExecs.Inc()
		if res.Status != first {
			if first == target.StatusCrash {
				f.spuriousCrashes++
			} else {
				f.spuriousHangs++
			}
		}
	}
	verdict := f.cov.CompareWith(f.virginFor(res.Status))
	f.observePath()
	return res, verdict
}

// calibrate re-executes a freshly enqueued input CalibrationRuns-1 more
// times, AFL's calibrate_case: coverage slots that do not appear in every
// clean run are "variable" — flaky instrumentation, not new behaviour — and
// are suppressed from virginAll so they can never produce a verdict again
// (AFL's var_bytes mask). Returns the entry's cycle cost averaged over the
// clean runs. Runs that crash or hang mid-calibration contribute nothing.
// The coverage map is clobbered; callers capture hash/touched beforehand.
func (f *Fuzzer) calibrate(input []byte, firstTouched []uint32, firstCycles uint64) uint64 {
	c0 := f.tel.stageCalibrate.Start()
	counts := make(map[uint32]int, len(firstTouched)) //bigmap:alloc-ok calibration runs once per new corpus entry, off the per-exec loop
	for _, s := range firstTouched {
		counts[s] = 1
	}
	okRuns := 1
	sum := firstCycles
	for i := 1; i < f.cfg.CalibrationRuns; i++ {
		res := f.execClassify(input)
		f.calibExecs++
		f.tel.calibExecs.Inc()
		if res.Status != target.StatusOK {
			continue
		}
		okRuns++
		sum += res.Cycles
		f.touchedScratch = f.cov.AppendTouched(f.touchedScratch[:0])
		for _, s := range f.touchedScratch {
			counts[s]++
		}
	}
	for s, n := range counts {
		if n != okRuns && !f.varSlots[s] {
			f.varSlots[s] = true
			f.virginAll.Suppress(s)
		}
	}
	f.tel.stageCalibrate.Done(c0)
	return sum / uint64(okRuns)
}

// runForHash executes an input and returns its classified-trace digest
// without consulting or updating any virgin map — the read-only run the trim
// stage needs for path comparison.
func (f *Fuzzer) runForHash(input []byte) (target.Result, uint64) {
	res := f.execClassify(input)
	return res, f.cov.Hash()
}

// enqueue files an interesting input into the queue. The target is
// deterministic, so a single execution doubles as AFL's calibration run:
// res.Cycles is already the exact execution cost.
func (f *Fuzzer) enqueue(input []byte, res target.Result, foundBy string, depth int) {
	pathHash := f.cov.Hash()

	f.touchedScratch = f.cov.AppendTouched(f.touchedScratch[:0])
	touched := make([]uint32, len(f.touchedScratch)) //bigmap:alloc-ok discovery-only: touched slots are copied once per new corpus entry
	copy(touched, f.touchedScratch)

	cycles := res.Cycles
	if f.cfg.CalibrationRuns > 1 && res.Status == target.StatusOK {
		cycles = f.calibrate(input, touched, cycles)
	}

	e := &corpus.Entry{ //bigmap:alloc-ok discovery-only: one corpus entry allocation per discovery
		Input:     input,
		Cycles:    cycles,
		EdgeCount: len(touched),
		Touched:   touched,
		PathHash:  pathHash,
		Depth:     depth,
		FoundBy:   foundBy,
	}
	f.queue.Add(e)
	f.sumCycles += cycles
	f.sumEdges += uint64(len(touched))
	f.noteEnqueue()
}

// ImportInput re-executes an input found by another instance and enqueues it
// if it adds local coverage — AFL's corpus synchronization.
func (f *Fuzzer) ImportInput(input []byte) bool {
	res, verdict := f.runOne(input, nil)
	if res.Status != target.StatusOK || verdict == core.VerdictNone {
		return false
	}
	in := make([]byte, len(input))
	copy(in, input)
	f.enqueue(in, res, "sync", 0)
	f.tel.imports.Inc()
	return true
}

// VirginDelta returns the raw-key delta of this instance's clean-run
// coverage relative to last, and the bytes to pass as last next time: the
// coverage a dist.Worker publishes (core.Map.DiffVirgin). A nil last is the
// all-0xFF baseline. Raw keys make instances with different BigMap slot
// orders land shared edges on the same union keys. The virgin map is only
// read.
func (f *Fuzzer) VirginDelta(last []byte) (core.VirginDelta, []byte) {
	return f.cov.DiffVirgin(last, f.virginAll)
}

// Stats snapshots the instance's progress. Every field is maintained
// incrementally (EdgesDiscovered is the virgin map's running counter, fed on
// the has_new_bits path), so polling is O(queue length) for the favored
// count and O(1) for everything else.
func (f *Fuzzer) Stats() Stats {
	discovered := f.virginAll.CountDiscovered()
	stability := 100.0
	if len(f.varSlots) > 0 {
		d := discovered
		if d < 1 {
			d = 1
		}
		stability = 100 * (1 - float64(len(f.varSlots))/float64(d))
		if stability < 0 {
			stability = 0
		}
	}
	st := Stats{
		Execs:            f.execs,
		CyclesDone:       f.cyclesDone,
		Paths:            f.queue.Len(),
		PendingFavored:   f.queue.PendingFavored(),
		EdgesDiscovered:  discovered,
		Crashes:          f.totalCrashes,
		UniqueCrashes:    f.crashes.Unique(),
		UniqueCrashesAFL: f.aflUniqueCrash,
		Hangs:            f.totalHangs,
		UsedKeys:         f.cov.UsedKeys(),
		CalibExecs:       f.calibExecs,
		VariableEdges:    len(f.varSlots),
		Stability:        stability,
		SpuriousCrashes:  f.spuriousCrashes,
		SpuriousHangs:    f.spuriousHangs,
	}
	if sat, ok := f.cov.(core.Saturable); ok {
		st.MapSaturated = sat.Saturated()
		st.DroppedKeys = sat.DroppedKeys()
	}
	return st
}

// Execs returns the number of executed test cases (cheap, for hot loops).
func (f *Fuzzer) Execs() uint64 { return f.execs }
